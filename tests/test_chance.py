import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import chance, quantum
from bellsim.chance import (
    DEPENDENCE_TOL,
    CausalVerdict,
    CausalVerdictKind,
    ChanceValue,
    ForceOutcome,
    JointTarget,
    NoChanceDefinedError,
    OutcomeTarget,
    ReferenceClass,
    ReplacePreparation,
    SenselessInterventionError,
    SetAngle,
    _admissible_interventions,
    apply_intervention,
    causally_depends,
    chance_at,
    estimated_chance,
    joint_vertical,
    local_causality_readings,
    reference_class_at,
    set_angle_intervention,
    vertical_outcome,
)
from bellsim.quantum import (
    ZERO_PROBABILITY,
    AnalyzerAngle,
    OutcomeLabel,
    PhotonPairState,
    Wing,
    bell_phi_plus,
    born_conditional,
    born_joint,
    born_marginal,
    product_polarized,
)
from bellsim.spacetime import (
    EventRecord,
    Outcome,
    Preparation,
    Scenario,
    Setting,
    SpacetimePoint,
    backward_cone_contents,
    is_spacelike,
    load_scenario,
    standard_scenario,
)
from strategies import density_matrices

V, H = OutcomeLabel.V, OutcomeLabel.H
E_A = vertical_outcome(Wing.A)
E_B = vertical_outcome(Wing.B)


def cos2(degrees: float) -> float:
    return math.cos(math.radians(degrees)) ** 2


@pytest.fixture
def overlap():
    """Settings chosen long before, both outcomes registered V."""
    return standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=22.5)


@pytest.fixture
def aligned():
    return standard_scenario(settings_in_overlap=True, angle_a=15.0, angle_b=15.0)


class TestReferenceClass:
    def test_at_q_includes_remote_outcome(self, overlap):
        rc = reference_class_at(overlap.q, overlap)
        assert rc.state_backed
        assert rc.outcomes == {Wing.B: V}
        assert set(rc.settings) == {Wing.A, Wing.B}

    def test_at_p_settings_only(self, overlap):
        rc = reference_class_at(overlap.p, overlap)
        assert rc.state_backed
        assert rc.outcomes == {}
        assert set(rc.settings) == {Wing.A, Wing.B}

    def test_far_past_empty(self, overlap):
        rc = reference_class_at(SpacetimePoint(-50.0, 0.0), overlap)
        assert not rc.state_backed
        assert rc.settings == {} and rc.outcomes == {}

    def test_orphan_outcome_rejected(self):
        with pytest.raises(ValueError, match="setting"):
            ReferenceClass(state_backed=True, settings={}, outcomes={Wing.A: V})


def cone_reference_class(point, scenario):
    """The derivation ``reference_class_at`` replaced, kept as its reference:
    scan the backward cone and dispatch on each event's kind."""
    state_backed = False
    settings_seen, outcomes = {}, {}
    for ev in backward_cone_contents(point, scenario):
        if isinstance(ev.kind, Preparation):
            state_backed = True
        elif isinstance(ev.kind, Setting):
            settings_seen[ev.kind.wing] = ev.kind.angle
        elif isinstance(ev.kind, Outcome):
            outcomes[ev.kind.wing] = ev.kind.label
    return ReferenceClass(state_backed=state_backed, settings=settings_seen, outcomes=outcomes)


def moved_scenario(scenario, move, q=None):
    """``scenario`` with every event and probe mapped through ``move``."""
    return Scenario(
        state=scenario.state,
        events=tuple(dataclasses.replace(ev, point=move(ev.point)) for ev in scenario.events),
        p=move(scenario.p),
        p_prime=move(scenario.p_prime),
        q=move(scenario.q if q is None else q),
        r=move(scenario.r),
    )


class TestReferenceClassAgainstConeScan:
    """``reference_class_at`` reads the scenario's event index; the cone
    scan it replaced must give the same reference class everywhere."""

    WINGS = [  # (angle_a, angle_b, outcome_a, outcome_b)
        (0.0, 22.5, V, V),
        (0.0, 22.5, None, H),
        (15.0, 70.0, None, None),
        (None, 30.0, None, V),
        (45.0, None, H, None),
        (None, None, None, None),
    ]
    MOVES = [(1.0, 0.0), (1.0, 0.4), (1.0, -1.3), (2.0**10, 5.0 / 32.0)]

    @pytest.mark.parametrize("overlap_layout", [True, False])
    @pytest.mark.parametrize("scale, zeta", MOVES)
    def test_matches_cone_scan(self, overlap_layout, scale, zeta):
        """Seeded random points, the probes, every event point and points
        exactly on each event's light cone, on every wing variant."""
        rng = np.random.default_rng(20161)

        def move(point):
            return SpacetimePoint(point.t * scale, point.x * scale).boosted(zeta)

        reached = set()
        for angle_a, angle_b, outcome_a, outcome_b in self.WINGS:
            base = standard_scenario(
                settings_in_overlap=overlap_layout, angle_a=angle_a, angle_b=angle_b,
                outcome_a=outcome_a, outcome_b=outcome_b,
            )
            points = [
                SpacetimePoint(t, x)
                for t, x in zip(rng.uniform(-3.0, 14.0, 200), rng.uniform(-8.5, 8.5, 200))
            ]
            points += [base.probe(name) for name in ("p", "p'", "q", "r")]
            for ev in base.events:  # dyadic offsets along both null directions
                for k in range(-4, 9):
                    points.append(SpacetimePoint(ev.point.t + k / 8, ev.point.x + k / 8))
                    points.append(SpacetimePoint(ev.point.t + k / 8, ev.point.x - k / 8))
            scenario = moved_scenario(base, move)
            for point in map(move, points):
                rc = reference_class_at(point, scenario)
                assert rc == cone_reference_class(point, scenario)
                reached.add((rc.state_backed, len(rc.settings), len(rc.outcomes)))
        # the sweep sees nothing, everything and the partial views between
        assert {(False, 0, 0), (True, 0, 0), (True, 2, 0), (True, 2, 1), (True, 2, 2)} <= reached

    def test_on_cone_probe_matches_cone_scan(self):
        """The overlap layout scaled by 2**10 with q moved exactly onto wing
        B's outcome light cone, unboosted and boosted."""
        base = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=22.5)
        for zeta in (0.0, 5.0 / 32.0, -0.75):

            def move(point):
                return SpacetimePoint(point.t * 2.0**10, point.x * 2.0**10).boosted(zeta)

            on_cone = moved_scenario(base, move, q=SpacetimePoint(7.0, 5.0))
            rc = reference_class_at(on_cone.q, on_cone)
            assert rc.outcomes == {Wing.B: V}
            for point in (on_cone.p, on_cone.p_prime, on_cone.q, on_cone.r,
                          *(ev.point for ev in on_cone.events)):
                assert reference_class_at(point, on_cone) == cone_reference_class(point, on_cone)


class TestChanceTable:
    def test_half_at_unconditioned_probes(self, overlap):
        for point in (overlap.p, overlap.p_prime, overlap.r):
            assert chance_at(point, E_A, overlap).value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 22.5, 45.0, 60.0, 90.0])
    def test_cos_squared_at_q(self, delta):
        s = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=delta)
        assert chance_at(s.q, E_A, s).value == pytest.approx(cos2(delta), abs=1e-12)

    def test_certainty_at_q_when_aligned(self, aligned):
        assert chance_at(aligned.q, E_A, aligned).value == pytest.approx(1.0, abs=1e-12)

    def test_joint_chance_at_r(self, overlap):
        expected = 0.5 * cos2(22.5)
        assert chance_at(overlap.r, joint_vertical(), overlap).value == pytest.approx(
            expected, abs=1e-12
        )

    def test_late_layout_matches_overlap_joint_value(self):
        late = standard_scenario(angle_a=0.0, angle_b=22.5)
        value = chance_at(late.r, joint_vertical(), late).value
        assert value == pytest.approx(0.5 * cos2(22.5), abs=1e-12)
        # the late-layout probe sits later in lab time than the outcomes
        assert late.r.t > late.outcome_event(Wing.A).point.t

    def test_settled_target_is_exactly_one(self, overlap):
        above_everything = SpacetimePoint(30.0, 0.0)
        assert chance_at(above_everything, E_A, overlap).value == 1.0
        assert chance_at(above_everything, joint_vertical(), overlap).value == 1.0

    def test_settled_target_is_exactly_zero(self):
        s = standard_scenario(settings_in_overlap=True, outcome_a=H)
        assert chance_at(SpacetimePoint(30.0, 0.0), E_A, s).value == 0.0

    def test_settled_remote_outcome_at_q(self, overlap):
        # e_B itself is settled at q
        assert chance_at(overlap.q, E_B, overlap).value == 1.0

    def test_no_chance_before_preparation(self, overlap):
        with pytest.raises(NoChanceDefinedError, match="preparation"):
            chance_at(SpacetimePoint(-50.0, 0.0), E_A, overlap)

    def test_no_chance_without_target_setting(self):
        late = standard_scenario(angle_a=0.0, angle_b=22.5)
        # q cannot see the late wing-A setting, so e_A has no chance there
        with pytest.raises(NoChanceDefinedError, match="setting"):
            chance_at(late.q, E_A, late)

    def test_no_chance_for_unmeasured_wing(self):
        s = standard_scenario(settings_in_overlap=True, angle_b=None, outcome_b=None)
        with pytest.raises(NoChanceDefinedError, match="no measurement"):
            chance_at(s.q, E_B, s)


def spacelike_perturbations(scenario, point, count, seed):
    """Scenarios differing from `scenario` only in remote events
    spacelike to `point`: moved, relabeled or removed."""
    rng = np.random.default_rng(seed)
    outcome_b = scenario.outcome_event(Wing.B)
    variants = []
    while len(variants) < count:
        choice = rng.integers(0, 3)
        if choice == 0:  # remove the remote outcome
            variants.append(
                scenario.with_events(
                    ev for ev in scenario.events if ev.id != outcome_b.id
                )
            )
            continue
        t = float(rng.uniform(5.7, 6.3))
        x = float(rng.uniform(3.4, 4.6))
        moved_point = SpacetimePoint(t, x)
        if not is_spacelike(point, moved_point):
            continue
        label = V if choice == 1 else H
        moved = dataclasses.replace(
            outcome_b, point=moved_point, kind=Outcome(Wing.B, label)
        )
        variants.append(
            scenario.with_events(
                moved if ev.id == outcome_b.id else ev for ev in scenario.events
            )
        )
    return variants


class TestConeDependence:
    def test_bit_identical_under_remote_perturbations(self, overlap):
        baseline = chance_at(overlap.p, E_A, overlap).value
        for variant in spacelike_perturbations(overlap, overlap.p, 60, seed=7):
            assert chance_at(variant.p, E_A, variant).value == baseline

    def test_bit_identical_in_late_layout(self):
        late = standard_scenario(angle_a=0.0, angle_b=22.5)
        baseline = chance_at(late.p, E_A, late).value
        # in the late layout even the remote setting is spacelike to p
        for angle in (None, 10.0, 45.0, 137.5):
            iv = set_angle_intervention(late, Wing.B, angle)
            variant = apply_intervention(late, iv)
            assert chance_at(variant.p, E_A, variant).value == baseline

    def test_refinement_chain_rule(self, overlap):
        # moving from p' (no outcomes) to q (B outcome visible): the early
        # chance must be the mixture of the later ones over the newly
        # visible outcome
        early = chance_at(overlap.p_prime, E_A, overlap).value
        total = 0.0
        for label in (V, H):
            branch = overlap.with_events(
                ev
                if ev.id != "outcome-b"
                else dataclasses.replace(ev, kind=Outcome(Wing.B, label))
                for ev in overlap.events
            )
            weight = chance_at(overlap.p_prime, vertical_outcome(Wing.B), overlap).value
            if label is H:
                weight = 1.0 - weight
            total += weight * chance_at(branch.q, E_A, branch).value
        assert total == pytest.approx(early, abs=1e-12)


#: Angles on a 22.5-degree grid, where product states give exact zeros.
grid_angles = st.sampled_from([k * 22.5 for k in range(8)])
grid_or_any_angle = st.one_of(grid_angles, st.floats(-360.0, 360.0))
product_states = st.builds(product_polarized, grid_angles, grid_angles)


def sees_remote_outcome(point, scenario):
    """A leaky reference class: the real one, plus wing B's setting and
    outcome wherever they are."""
    rc = reference_class_at(point, scenario)
    outcome = scenario.outcome_event(Wing.B)
    if outcome is None:
        return rc
    return ReferenceClass(
        state_backed=rc.state_backed,
        settings={**rc.settings, Wing.B: scenario.angle(Wing.B)},
        outcomes={**rc.outcomes, Wing.B: outcome.kind.label},
    )


def sees_every_event(point, scenario):
    """A leaky reference class: every event, from any point."""
    return reference_class_at(SpacetimePoint(1e6, 0.0), scenario)


class TestLeakyReferenceClassesAreCaught:
    """Negative controls: with ``reference_class_at`` swapped for a leaky
    variant, the fixed-point reading and the remote-perturbation check
    both see a change at p; with the real one, neither does. Wing A
    registers nothing here: a leak that saw A's own outcome would settle
    the target at p to exactly 1 and hide the remote outcome's effect."""

    leaks = pytest.mark.parametrize(
        "leak", [None, sees_remote_outcome, sees_every_event],
        ids=["real", "remote-outcome", "every-event"],
    )

    @pytest.fixture
    def scenario(self):
        return standard_scenario(
            settings_in_overlap=True, angle_a=0.0, angle_b=22.5, outcome_a=None
        )

    @leaks
    def test_fixed_point_reading(self, monkeypatch, scenario, leak):
        if leak is not None:
            monkeypatch.setattr(chance, "reference_class_at", leak)
        readings = local_causality_readings(scenario)
        assert [sample[0] for sample in readings.fixed_point_samples] == ["p"]
        assert readings.fixed_point_holds is (leak is None)

    @leaks
    def test_remote_perturbations_at_p(self, monkeypatch, scenario, leak):
        if leak is not None:
            monkeypatch.setattr(chance, "reference_class_at", leak)
        baseline = chance_at(scenario.p, E_A, scenario).value
        variants = spacelike_perturbations(scenario, scenario.p, 60, seed=7)
        changed = [chance_at(v.p, E_A, v).value != baseline for v in variants]
        assert any(changed) is (leak is not None)


def public_mixture(state, wing, label, own_angle, remote_angle):
    """The mixture estimate through the public Born functions: the sum over
    the remote labels of ``born_marginal`` times ``born_conditional``."""
    remote = wing.other()
    angles = (own_angle, remote_angle) if wing is Wing.A else (remote_angle, own_angle)
    estimate = 0.0
    for hypothesized, weight in zip((V, H), born_marginal(state, remote, remote_angle)):
        if weight > ZERO_PROBABILITY:
            conditional = born_conditional(state, *angles, given=(remote, hypothesized))
            estimate += weight * conditional.for_label(label)
    return min(max(estimate, 0.0), 1.0)


class TestEstimatedChance:
    def test_same_axis_mixture(self, aligned):
        iv = set_angle_intervention(aligned, Wing.B, 15.0)
        est = estimated_chance(aligned.p_prime, E_A, iv, aligned)
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_sixty_degree_mixture(self):
        s = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=0.0)
        iv = set_angle_intervention(s, Wing.B, 60.0)
        est = estimated_chance(s.p_prime, E_A, iv, s)
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_measure_nothing(self, overlap):
        iv = set_angle_intervention(overlap, Wing.B, None)
        est = estimated_chance(overlap.p_prime, E_A, iv, overlap)
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_no_contemplated_intervention(self, overlap):
        est = estimated_chance(overlap.p_prime, E_A, None, overlap)
        assert est.value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("beta", [i * 1.5 for i in range(120)])
    def test_decision_invariance_dense(self, overlap, beta):
        iv = set_angle_intervention(overlap, Wing.B, beta)
        est = estimated_chance(overlap.p_prime, E_A, iv, overlap)
        assert est.value == pytest.approx(0.5, abs=1e-12)

    @given(
        density_matrices(),
        st.floats(-360.0, 360.0),
        st.floats(-360.0, 360.0),
        st.one_of(st.none(), st.floats(-360.0, 360.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_decision_invariance_any_state(self, matrix, angle_a, angle_b, beta):
        """No contemplated remote setting, or none at all, moves the estimate
        off the local chance, for any state (no-signalling)."""
        s = standard_scenario(
            settings_in_overlap=True, angle_a=angle_a, angle_b=angle_b,
            state=PhotonPairState(matrix),
        )
        iv = set_angle_intervention(s, Wing.B, beta)
        est = estimated_chance(s.p_prime, E_A, iv, s)
        assert est.value == pytest.approx(chance_at(s.p_prime, E_A, s).value, abs=1e-12)

    def test_force_outcome_is_senseless_premise(self, overlap):
        iv = ForceOutcome(Wing.B, H)
        with pytest.raises(SenselessInterventionError):
            estimated_chance(overlap.p_prime, E_A, iv, overlap)

    def test_estimate_under_replaced_preparation(self, overlap):
        iv = ReplacePreparation(product_polarized(90.0, 0.0))
        est = estimated_chance(overlap.p_prime, E_A, iv, overlap)
        # wing A polarized orthogonal to its analyzer: V never registers
        assert est.value == pytest.approx(0.0, abs=1e-12)

    @given(
        st.one_of(density_matrices().map(PhotonPairState), product_states),
        grid_or_any_angle,
        grid_or_any_angle,
        grid_or_any_angle,
        st.sampled_from([V, H]),
    )
    @example(product_polarized(0.0, 0.0), 0.0, 0.0, 0.0, V)
    @example(product_polarized(22.5, 90.0), 22.5, 45.0, 90.0, H)
    @settings(max_examples=200, deadline=None)
    def test_mixture_is_the_public_route(self, state, angle_a, angle_b, beta, label):
        """The mixture, on one shared joint, equals the sum over the remote
        labels of the Born marginal times ``born_conditional``, bit for
        bit, for a target on either wing."""
        s = standard_scenario(settings_in_overlap=True, angle_a=angle_a, angle_b=angle_b,
                              state=state)
        for wing in (Wing.A, Wing.B):
            remote = wing.other()
            iv = set_angle_intervention(s, remote, beta)
            assert reference_class_at(s.p_prime, apply_intervention(s, iv)).outcomes == {}
            est = estimated_chance(s.p_prime, OutcomeTarget(wing, label), iv, s).value
            assert est.hex() == public_mixture(state, wing, label, s.angle(wing), iv.angle).hex()

    @pytest.mark.parametrize("polarization", [0.0, 45.0, 90.0, 22.5])
    def test_mixture_skips_an_impossible_remote_label(self, polarization):
        """A product state polarized along the contemplated remote axis: one
        weight is at most ``ZERO_PROBABILITY``, and only the other label's
        conditional enters the estimate."""
        state = product_polarized(polarization, polarization)
        s = standard_scenario(settings_in_overlap=True, angle_a=10.0, state=state)
        weights = born_marginal(state, Wing.B, polarization)
        assert min(weights) <= ZERO_PROBABILITY
        iv = set_angle_intervention(s, Wing.B, polarization)
        est = estimated_chance(s.p_prime, E_A, iv, s).value
        assert est.hex() == public_mixture(state, Wing.A, V, s.angle(Wing.A), iv.angle).hex()
        assert est == pytest.approx(cos2(polarization - 10.0), abs=1e-12)


class TestApplyIntervention:
    def test_replace_preparation_changes_chances(self, overlap):
        iv = ReplacePreparation(product_polarized(90.0, 0.0))
        altered = apply_intervention(overlap, iv)
        assert isinstance(altered, Scenario)
        assert chance_at(altered.r, E_A, altered).value == pytest.approx(0.0, abs=1e-12)

    def test_set_angle_leaves_local_marginal(self, overlap):
        iv = set_angle_intervention(overlap, Wing.B, 77.0)
        altered = apply_intervention(overlap, iv)
        assert chance_at(altered.p, E_A, altered).value == pytest.approx(0.5, abs=1e-12)
        assert altered.angle(Wing.B).degrees == 77.0

    def test_set_angle_none_drops_outcome(self, overlap):
        altered = apply_intervention(overlap, set_angle_intervention(overlap, Wing.B, None))
        assert altered.outcome_event(Wing.B) is None

    def test_force_outcome_refused(self, overlap):
        with pytest.raises(SenselessInterventionError, match="forcing outcome"):
            apply_intervention(overlap, ForceOutcome(Wing.B, H))


def fresh_build(scenario):
    """A scenario built, validated and indexed from ``scenario``'s fields."""
    return Scenario(state=scenario.state, events=scenario.events, p=scenario.p,
                    p_prime=scenario.p_prime, q=scenario.q, r=scenario.r)


def index_records(scenario):
    """The scenario's event index, with each record named by its identity."""
    preparations, settings, outcomes = scenario._by_kind
    return ([id(ev) for ev in preparations], {w: id(ev) for w, ev in settings.items()},
            {w: id(ev) for w, ev in outcomes.items()})


def answer(query):
    """A chance query's value as hex, or the reason it is undefined."""
    try:
        return query().value.hex()
    except NoChanceDefinedError as exc:
        return str(exc)


def assert_edit_equals_build(edited):
    """``edited`` equals a fresh build of its fields: the same index, and
    bit-identical chances and estimates on every probe and target."""
    fresh = fresh_build(edited)
    assert edited == fresh
    assert edited._by_kind == fresh._by_kind
    assert index_records(edited) == index_records(fresh)
    for name in ("p", "p'", "q", "r"):
        point = edited.probe(name)
        for target in (E_A, E_B, joint_vertical()):
            assert answer(lambda: chance_at(point, target, edited)) == answer(
                lambda: chance_at(point, target, fresh))
            assert answer(lambda: estimated_chance(point, target, None, edited)) == answer(
                lambda: estimated_chance(point, target, None, fresh))


optional_labels = st.sampled_from([V, H, None])


class TestEditsEqualBuilds:
    """Interventions and the readings' flipped outcome edit a scenario and
    carry its index over; the result is the scenario a fresh build gives."""

    @given(
        st.booleans(),
        st.one_of(st.none(), st.floats(-360.0, 360.0)),
        st.one_of(st.none(), st.floats(-360.0, 360.0)),
        optional_labels,
        optional_labels,
        density_matrices(),
        density_matrices(),
        st.one_of(st.none(), st.floats(-2.0, 2.0)),
    )
    @example(  # the replaced preparation gives wing B's registered V probability 0
        overlap_layout=True, angle_a=None, angle_b=0.0, label_a=V, label_b=V,
        matrix=np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
        replacement=np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex), zeta=None,
    )
    @settings(max_examples=60, deadline=None)
    def test_every_edit_equals_a_fresh_build(
        self, overlap_layout, angle_a, angle_b, label_a, label_b, matrix, replacement, zeta
    ):
        s = standard_scenario(
            settings_in_overlap=overlap_layout, angle_a=angle_a, angle_b=angle_b,
            outcome_a=None if angle_a is None else label_a,
            outcome_b=None if angle_b is None else label_b,
            state=PhotonPairState(matrix),
        )
        if zeta is not None:
            s = moved_scenario(s, lambda point: point.boosted(zeta))
        parent_index = index_records(s)
        interventions = [ReplacePreparation(PhotonPairState(replacement))]
        for cause in (s.preparation_event(), s.setting_event(Wing.A), s.setting_event(Wing.B)):
            interventions += _admissible_interventions(cause)
        for iv in interventions:
            assert_edit_equals_build(apply_intervention(s, iv))
        for wing in (Wing.A, Wing.B):
            outcome = s.outcome_event(wing)
            if outcome is not None:
                flipped = H if outcome.kind.label is V else V
                edited = s.with_outcome(wing, flipped)
                assert edited.outcome_event(wing).kind == Outcome(wing, flipped)
                assert_edit_equals_build(edited)
        assert index_records(s) == parent_index
        assert s == fresh_build(s)

    def test_set_angle_none_drops_the_outcome_from_events_and_index(self, overlap):
        edited = overlap.with_setting(Wing.B, None)
        assert [ev.id for ev in edited.events] == ["o", "setting-a", "outcome-a", "setting-b"]
        assert edited.outcome_event(Wing.B) is None
        assert overlap.outcome_event(Wing.B) is not None
        assert_edit_equals_build(edited)

    def test_missing_outcome_rejected(self):
        s = standard_scenario(angle_b=None, outcome_b=None)
        with pytest.raises(ValueError, match="scenario has no outcome event on wing B"):
            s.with_outcome(Wing.B, V)


class TestZeroProbabilityOutcome:
    """A registered outcome whose Born probability is 0 leaves nothing to
    condition on: a chance or an estimate conditional on it is undefined,
    with a reason that names the outcome, not an error."""

    REASON = r"the outcome H on wing B seen from \(7.0, 4.0\) has zero probability"

    @pytest.fixture
    def scenario(self):
        # wing B's photon is polarized at 0 degrees, so H at 0 degrees never registers
        return standard_scenario(settings_in_overlap=True, angle_b=0.0, outcome_b=H,
                                 state=product_polarized(0.0, 0.0))

    @pytest.mark.parametrize("target", [E_A, JointTarget(V, H)])
    def test_chance_at_is_undefined(self, scenario, target):
        with pytest.raises(NoChanceDefinedError, match=self.REASON + "; no chance is defined"):
            chance_at(scenario.q, target, scenario)

    def test_a_settled_target_keeps_its_value(self, scenario):
        assert chance_at(scenario.q, joint_vertical(), scenario).value == 0.0

    @pytest.mark.parametrize("angle", [0.0, 45.0, 90.0])
    def test_after_setting_wing_a(self, scenario, angle):
        altered = apply_intervention(scenario, SetAngle(Wing.A, angle))
        with pytest.raises(NoChanceDefinedError, match=self.REASON):
            chance_at(altered.q, E_A, altered)

    def test_estimate_is_undefined(self, scenario):
        with pytest.raises(NoChanceDefinedError, match=self.REASON + "; no estimate is defined"):
            estimated_chance(scenario.q, E_A, None, scenario)

    def test_estimate_under_a_setting_intervention(self):
        # the one CHANCE_GOLDEN "estimate" line that names this error
        s = standard_scenario(settings_in_overlap=True, angle_a=15.0, angle_b=15.0,
                              outcome_a=V, outcome_b=H, state=product_polarized(0.0, 45.0))
        with pytest.raises(NoChanceDefinedError, match="outcome H on wing B"):
            estimated_chance(s.q, E_A, set_angle_intervention(s, Wing.B, 45.0), s)


class TestNoRebuilds:
    """Interventions and the readings edit a scenario; none of them runs
    ``Scenario.__post_init__``, the validation every build runs."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = []
        real = Scenario.__post_init__
        monkeypatch.setattr(Scenario, "__post_init__",
                            lambda self: count.append(1) or real(self))
        return count

    def test_the_counter_sees_a_build(self, overlap, builds):
        overlap.with_events(overlap.events)
        assert builds == [1]

    @pytest.mark.parametrize("intervention", [
        SetAngle(Wing.B, AnalyzerAngle(33.0)),
        SetAngle(Wing.A, None),
        ReplacePreparation(product_polarized(90.0, 0.0)),
    ], ids=["set-angle", "set-angle-none", "replace-preparation"])
    def test_apply_intervention_builds_nothing(self, overlap, builds, intervention):
        assert isinstance(apply_intervention(overlap, intervention), Scenario)
        assert builds == []

    def test_readings_build_nothing(self, overlap, builds):
        local_causality_readings(overlap)
        assert builds == []

    @pytest.mark.parametrize("layout", ["overlap", "late"])
    def test_what_if_queries_edit_no_scenario(self, monkeypatch, builds, layout):
        """The chance-queries battery on a built-in layout never reaches
        ``Scenario._edited``, the copy every payload edit makes."""
        def edited(self, **fields):
            raise AssertionError("a what-if query built a scenario copy")

        monkeypatch.setattr(Scenario, "_edited", edited)
        s = load_scenario(layout)
        with pytest.raises(AssertionError, match="scenario copy"):
            apply_intervention(s, SetAngle(Wing.B, None))
        for beta in [22.5 * k for k in range(8)] + [None]:
            iv = set_angle_intervention(s, Wing.B, beta)
            answer(lambda: estimated_chance(s.p_prime, E_A, iv, s))  # undefined in the late layout
        for cause in (s.preparation_event(), s.setting_event(Wing.A), s.setting_event(Wing.B),
                      s.outcome_event(Wing.B)):
            causally_depends(E_A, cause, s)
        local_causality_readings(s)
        assert builds == []


def scenario_route_estimate(point, target, contemplated, scenario):
    """``estimated_chance`` by the scenario route, kept as the reference for
    the what-if step: ``apply_intervention``, then the chance or the mixture
    read from the scenario it returns."""
    if contemplated is not None:
        scenario = apply_intervention(scenario, contemplated)
    state = scenario.state
    rc = reference_class_at(point, scenario)
    remote = target.wing.other() if isinstance(target, OutcomeTarget) else None
    remote_angle = None if remote is None else scenario.angle(remote)
    if remote_angle is None or rc.outcomes or not rc.state_backed:
        return ChanceValue(chance._chance(state, rc, target, point, "estimate"), point, target)
    own_angle = chance._visible_angle(rc, target.wing, point)
    angles = (own_angle, remote_angle) if remote is Wing.B else (remote_angle, own_angle)
    weights = born_marginal(state, remote, remote_angle)
    joint = quantum._joint(state, *angles)
    estimate = 0.0
    for hypothesized, weight in zip((V, H), weights):
        if weight <= ZERO_PROBABILITY:
            continue
        downstream = quantum._conditional(joint, weight, (remote, hypothesized))
        estimate += weight * downstream.for_label(target.label)
    return ChanceValue(value=min(max(estimate, 0.0), 1.0), at=point, target=target)


def scenario_route_depends(effect, cause, scenario):
    """``causally_depends`` by the scenario route: each intervention applied
    to the scenario, then ``chance_at`` on the scenario it returns."""
    if isinstance(cause.kind, Outcome):
        if isinstance(effect, OutcomeTarget) and cause.kind.wing is effect.wing:
            raise ValueError("effect and cause must be distinct events")
        return CausalVerdict(kind=CausalVerdictKind.SENSELESS_INTERVENTION,
                             intervention=ForceOutcome(cause.kind.wing, cause.kind.label))
    interventions = _admissible_interventions(cause)
    baseline = chance_at(scenario.r, effect, scenario)
    for intervention in interventions:
        altered_scenario = apply_intervention(scenario, intervention)
        try:
            altered = chance_at(scenario.r, effect, altered_scenario)
        except NoChanceDefinedError:
            continue
        if abs(altered.value - baseline.value) > DEPENDENCE_TOL:
            return CausalVerdict(kind=CausalVerdictKind.DEPENDENT, witness=(baseline, altered),
                                 intervention=intervention)
    return CausalVerdict(kind=CausalVerdictKind.INDEPENDENT)


def scenario_route_samples(scenario):
    """The readings' fixed-point samples by the scenario route: wing B's
    outcome flipped with ``with_outcome``, then ``chance_at`` on both."""
    outcome_b = scenario.outcome_event(Wing.B)
    flipped = scenario.with_outcome(Wing.B, H if outcome_b.kind.label is V else V)
    return tuple(
        (name, chance_at(point, E_A, scenario).value, chance_at(point, E_A, flipped).value)
        for name, point in (("p", scenario.p), ("p_prime", scenario.p_prime))
        if is_spacelike(point, outcome_b.point)
    )


def exact(query):
    """A query's result with its floats as hex, or its error's type and text."""
    try:
        result = query()
    except (NoChanceDefinedError, SenselessInterventionError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, ChanceValue):
        return result.value.hex(), result.at, result.target
    if isinstance(result, CausalVerdict):
        witness = result.witness and tuple(exact(lambda: c) for c in result.witness)
        return result.kind, witness, result.intervention
    return tuple((name, base.hex(), other.hex()) for name, base, other in result)


@st.composite
def contemplated_interventions(draw):
    """A random ``SetAngle`` (None, a float or an ``AnalyzerAngle``), a
    ``ReplacePreparation`` or a ``ForceOutcome``."""
    kind = draw(st.sampled_from(["set", "prepare", "force"]))
    wing = draw(st.sampled_from([Wing.A, Wing.B]))
    if kind == "set":
        degrees = st.floats(-360.0, 360.0)
        return SetAngle(wing, draw(st.one_of(st.none(), degrees, degrees.map(AnalyzerAngle))))
    if kind == "prepare":
        return ReplacePreparation(PhotonPairState(draw(density_matrices())))
    return ForceOutcome(wing, draw(st.sampled_from([V, H])))


class TestWhatIfMatchesTheScenarioRoute:
    """The what-if queries edit a point's reference class; the scenario
    route they replaced must give the same values to the last bit, the same
    verdicts and the same errors, everywhere."""

    @given(
        st.booleans(),
        st.one_of(st.none(), st.floats(-360.0, 360.0)),
        st.one_of(st.none(), st.floats(-360.0, 360.0)),
        optional_labels,
        optional_labels,
        density_matrices(),
        st.one_of(st.none(), st.floats(-2.0, 2.0)),
        st.sampled_from([(), ("o",), ("setting-b", "outcome-b")]),
        st.lists(st.tuples(st.floats(-2.0, 12.0), st.floats(-8.0, 8.0)), max_size=4),
        st.lists(contemplated_interventions(), max_size=4),
    )
    @example(  # the overlap layout, whole, unboosted: every probe and intervention
        overlap_layout=True, angle_a=0.0, angle_b=22.5, label_a=V, label_b=H,
        matrix=bell_phi_plus().matrix, zeta=None, dropped=(), coords=[], extra=[],
    )
    @settings(max_examples=60, deadline=None)
    def test_queries_match(
        self, overlap_layout, angle_a, angle_b, label_a, label_b, matrix, zeta, dropped,
        coords, extra,
    ):
        whole = standard_scenario(
            settings_in_overlap=overlap_layout, angle_a=angle_a, angle_b=angle_b,
            outcome_a=None if angle_a is None else label_a,
            outcome_b=None if angle_b is None else label_b,
            state=PhotonPairState(matrix),
        )
        points = [SpacetimePoint(t, x) for t, x in coords]
        if zeta is not None:
            whole = moved_scenario(whole, lambda point: point.boosted(zeta))
            points = [point.boosted(zeta) for point in points]
        s = whole.with_events(ev for ev in whole.events if ev.id not in dropped)
        points += [s.probe(name) for name in ("p", "p'", "q", "r")]
        interventions = [None, *extra]
        for cause in whole.events:
            if not isinstance(cause.kind, Outcome):
                interventions += _admissible_interventions(cause)
        targets = (E_A, E_B, OutcomeTarget(Wing.B, H), joint_vertical())
        for point, intervention in itertools.product(points, interventions):
            for target in targets:
                assert exact(lambda: estimated_chance(point, target, intervention, s)) == exact(
                    lambda: scenario_route_estimate(point, target, intervention, s))
        for cause, effect in itertools.product(whole.events, targets):
            assert exact(lambda: causally_depends(effect, cause, s)) == exact(
                lambda: scenario_route_depends(effect, cause, s))
        if s.outcome_event(Wing.B) is not None and None not in (s.angle(Wing.A), s.angle(Wing.B)):
            assert exact(lambda: local_causality_readings(s).fixed_point_samples) == exact(
                lambda: scenario_route_samples(s))


def renamed_setting_b(scenario):
    """``scenario`` with its wing-B setting event under another id."""
    return scenario.with_events(
        dataclasses.replace(ev, id="analyzer-b") if ev.id == "setting-b" else ev
        for ev in scenario.events
    )


class TestInterventionActsOnTheScenarioGiven:
    """An intervention acts on the event it names in the scenario it is
    applied to, whatever that event's id and wherever the intervention
    was built."""

    def test_set_angle_turns_the_given_setting(self):
        original = standard_scenario(settings_in_overlap=True)
        copy = renamed_setting_b(original)
        iv = set_angle_intervention(original, Wing.B, 77.0)
        assert apply_intervention(copy, iv).angle(Wing.B).degrees == 77.0
        expected = estimated_chance(original.q, E_A, iv, original).value
        assert expected == pytest.approx(cos2(77.0), abs=1e-12)
        assert estimated_chance(copy.q, E_A, iv, copy).value == expected

    def test_dependence_found_whatever_the_event_id(self):
        original = standard_scenario(settings_in_overlap=True, state=product_polarized(0.0, 0.0))
        cause = original.setting_event(Wing.B)
        for scenario in (original, renamed_setting_b(original)):
            verdict = causally_depends(E_B, cause, scenario)
            assert verdict.kind is CausalVerdictKind.DEPENDENT
            assert isinstance(verdict.intervention, SetAngle)

    def test_missing_preparation_rejected(self, overlap):
        bare = overlap.with_events(
            ev for ev in overlap.events if not isinstance(ev.kind, Preparation)
        )
        state = product_polarized(90.0, 0.0)
        for call in (
            lambda: bare.with_state(state),
            lambda: apply_intervention(bare, ReplacePreparation(state)),
            lambda: estimated_chance(bare.p_prime, E_A, ReplacePreparation(state), bare),
        ):
            with pytest.raises(ValueError, match="scenario has no preparation event"):
                call()

    def test_missing_setting_rejected(self, overlap):
        one_wing = overlap.with_events(
            ev for ev in overlap.events if ev.id not in ("setting-b", "outcome-b")
        )
        for call in (
            lambda: set_angle_intervention(one_wing, Wing.B, 10.0),
            lambda: apply_intervention(one_wing, SetAngle(Wing.B, None)),
            lambda: apply_intervention(one_wing, set_angle_intervention(overlap, Wing.B, 10.0)),
        ):
            with pytest.raises(ValueError, match="scenario has no setting event on wing B"):
                call()

    def test_unmeasured_setting_offers_three_axes(self):
        s = standard_scenario(settings_in_overlap=True, angle_b=None, outcome_b=None)
        assert _admissible_interventions(s.setting_event(Wing.B)) == [
            SetAngle(Wing.B, AnalyzerAngle(deg)) for deg in (0.0, 45.0, 90.0)
        ]
        verdict = causally_depends(E_A, s.setting_event(Wing.B), s)
        assert verdict.kind is CausalVerdictKind.INDEPENDENT


class TestCausalDependence:
    def test_source_is_common_cause(self, overlap):
        for effect in (E_A, E_B, joint_vertical()):
            verdict = causally_depends(effect, overlap.preparation_event(), overlap)
            assert verdict.kind is CausalVerdictKind.DEPENDENT
            baseline, altered = verdict.witness
            assert abs(baseline.value - altered.value) > 1e-9

    def test_remote_outcome_is_senseless(self, overlap):
        verdict = causally_depends(E_A, overlap.outcome_event(Wing.B), overlap)
        assert verdict.kind is CausalVerdictKind.SENSELESS_INTERVENTION
        verdict = causally_depends(E_B, overlap.outcome_event(Wing.A), overlap)
        assert verdict.kind is CausalVerdictKind.SENSELESS_INTERVENTION

    def test_remote_setting_is_independent(self, overlap):
        verdict = causally_depends(E_A, overlap.setting_event(Wing.B), overlap)
        assert verdict.kind is CausalVerdictKind.INDEPENDENT

    @pytest.mark.parametrize("b_angle", [i * 11.25 for i in range(16)])
    def test_remote_setting_independent_on_grid(self, b_angle):
        s = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=b_angle)
        verdict = causally_depends(E_A, s.setting_event(Wing.B), s)
        assert verdict.kind is CausalVerdictKind.INDEPENDENT

    def test_dependence_found_at_any_analyzer_angle(self):
        # the preparation battery must produce a witness whatever the angles
        for a_angle in (0.0, 22.5, 45.0, 67.5, 90.0, 112.5, 157.5):
            s = standard_scenario(settings_in_overlap=True, angle_a=a_angle, angle_b=30.0)
            verdict = causally_depends(E_A, s.preparation_event(), s)
            assert verdict.kind is CausalVerdictKind.DEPENDENT

    def test_same_event_rejected(self, overlap):
        with pytest.raises(ValueError, match="distinct"):
            causally_depends(E_A, overlap.outcome_event(Wing.A), overlap)

    def test_outcome_cause_names_the_refused_intervention(self, overlap):
        verdict = causally_depends(joint_vertical(), overlap.outcome_event(Wing.B), overlap)
        assert verdict == CausalVerdict(
            kind=CausalVerdictKind.SENSELESS_INTERVENTION, intervention=ForceOutcome(Wing.B, V)
        )
        with pytest.raises(SenselessInterventionError, match="forcing outcome V on wing B"):
            apply_intervention(overlap, verdict.intervention)

    def test_effect_without_a_baseline_raises(self):
        """Wing B measures nothing, so its outcome has no chance at r for an
        intervention to alter, although setting B to an axis would define one."""
        s = standard_scenario(settings_in_overlap=True, angle_b=None, outcome_b=None)
        with pytest.raises(NoChanceDefinedError, match="no measurement is performed on wing B"):
            causally_depends(E_B, s.setting_event(Wing.B), s)

    def test_unknown_cause_kind_rejected(self, overlap):
        odd = EventRecord(id="odd", point=SpacetimePoint(0.5, 0.0), kind="bogus")
        with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
            causally_depends(E_A, odd, overlap)


class TestRecordChecks:
    @pytest.mark.parametrize("value", [-0.25, 1.5, math.nan])
    def test_chance_value_outside_the_unit_interval(self, overlap, value):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ChanceValue(value, overlap.p, E_A)

    def test_dependent_verdict_requires_a_witness(self):
        with pytest.raises(ValueError, match="requires a witness pair"):
            CausalVerdict(kind=CausalVerdictKind.DEPENDENT)

    def test_dependent_witnesses_must_differ_beyond_tolerance(self, overlap):
        witness = (ChanceValue(0.5, overlap.r, E_A),
                   ChanceValue(0.5 + DEPENDENCE_TOL / 2, overlap.r, E_A))
        with pytest.raises(ValueError, match="do not differ beyond tolerance"):
            CausalVerdict(kind=CausalVerdictKind.DEPENDENT, witness=witness)


class TestLocalCausalityReadings:
    def test_entangled_scenario_splits_the_readings(self, overlap):
        readings = local_causality_readings(overlap)
        assert not readings.conditional_equality_holds
        assert readings.unconditional == pytest.approx(0.5, abs=1e-12)
        assert readings.conditional_on_remote == pytest.approx(cos2(22.5), abs=1e-12)
        assert readings.fixed_point_holds
        assert readings.fixed_point_samples  # at least one probe was spacelike

    @pytest.mark.parametrize("unmeasured", [
        dict(outcome_b=None), dict(angle_b=None, outcome_b=None), dict(angle_a=None, outcome_a=None),
    ], ids=["no-b-outcome", "b-unmeasured", "a-unmeasured"])
    def test_needs_both_wings_measured_and_a_b_outcome(self, unmeasured):
        s = standard_scenario(settings_in_overlap=True, **unmeasured)
        with pytest.raises(ValueError, match="registered B outcome"):
            local_causality_readings(s)

    def test_forty_five_degrees_masks_the_difference(self):
        s = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=45.0)
        readings = local_causality_readings(s)
        # cos^2(45) = 1/2 equals the marginal, so this reading holds here
        assert readings.conditional_equality_holds
        assert readings.fixed_point_holds


# -- golden chance values --------------------------------------------------------

#: SHA-256 digests of seeded chance-layer outputs, one per layer, captured
#: before the scalar ``born_*`` functions and the model kernel were routed
#: through one Born-rule path. Floats are hashed by ``repr``, which round
#: trips exactly, so any change in any bit of any value shows. One of the
#: 1,728 "estimate" lines names an error, not a value: the estimate at q
#: conditions on an outcome of zero probability
#: (``TestZeroProbabilityOutcome``). It recorded UndefinedConditionalError
#: until that case became NoChanceDefinedError; every other line is unchanged.
#: "born" was pinned again when the post-outcome remote states, whose function
#: was deleted, left its lines; every line it still hashes is unchanged.
CHANCE_GOLDEN = {
    "born": "09855fab6247f8b54aee344ee64137b00aaf66be3d425abddf553f25e9374a40",
    "chance": "cca50ced704e75ce642145d6c2996a6d15a2fe0db38edc9a5be0d262cfafa7e7",
    "estimate": "a8a11f5df5f99388259de568e8d613a4422796e5fe31610e63b5e85f32e3dd66",
    "dependence": "488923a42881e210fe50e9afadf46952f613836bae84868fe29076653ab75e15",
    "readings": "6546872d8d176f4dfb81353f0c99bfd08e34fae65cac3293234be0a9655418ce",
}


def _golden_states():
    """Fixed states plus seeded random pure and mixed ones."""
    rng = np.random.default_rng(20160517)
    states = [
        bell_phi_plus(),
        PhotonPairState(np.eye(4, dtype=complex) / 4.0),
        product_polarized(0.0, 45.0),
        product_polarized(30.0, 120.0),
    ]
    for k in range(8):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if k % 2:
            states.append(PhotonPairState.from_vector(g[0]))
        else:
            m = g @ g.conj().T
            states.append(PhotonPairState(m / m.trace().real))
    return states


def _outcome(call):
    """``repr`` of a call's result, or the name of the error it raised."""
    try:
        return repr(call())
    except (NoChanceDefinedError, ValueError) as exc:
        return type(exc).__name__


def _chance_layer_lines():
    rng = np.random.default_rng(7)
    states = _golden_states()
    lines = {key: [] for key in CHANCE_GOLDEN}
    for state in states:
        for a, b in [(0.0, 22.5), (45.0, 90.0), *rng.uniform(-200.0, 200.0, size=(3, 2)).tolist()]:
            j = born_joint(state, a, b)
            lines["born"].append(repr([[j.vv, j.vh], [j.hv, j.hh]]))
            for wing, angle in ((Wing.A, a), (Wing.B, b)):
                lines["born"].append(repr(born_marginal(state, wing, angle)))
                for label in (V, H):
                    lines["born"].append(
                        _outcome(lambda: born_conditional(state, a, b, given=(wing, label)))
                    )
    targets = (E_A, E_B, OutcomeTarget(Wing.B, H), joint_vertical())
    for state in states[:6]:
        for overlap_layout in (True, False):
            for a, b in [(0.0, 22.5), (15.0, 15.0), tuple(rng.uniform(0.0, 180.0, size=2))]:
                for oa, ob in ((V, V), (V, H), (H, None)):
                    s = standard_scenario(
                        settings_in_overlap=overlap_layout,
                        angle_a=a,
                        angle_b=b,
                        outcome_a=oa,
                        outcome_b=ob,
                        state=state,
                    )
                    contemplated = (
                        None,
                        set_angle_intervention(s, Wing.B, b + 30.0),
                        set_angle_intervention(s, Wing.B, None),
                        ReplacePreparation(product_polarized(a, 45.0)),
                    )
                    for name in ("p", "p'", "q", "r"):
                        point = s.probe(name)
                        for target in targets:
                            lines["chance"].append(
                                _outcome(lambda: chance_at(point, target, s).value)
                            )
                        for intervention in contemplated:
                            lines["estimate"].append(
                                _outcome(
                                    lambda: estimated_chance(point, E_A, intervention, s).value
                                )
                            )
                    for ev in s.events:
                        for effect in (E_A, E_B):
                            if isinstance(ev.kind, Outcome) and ev.kind.wing is effect.wing:
                                continue
                            verdict = causally_depends(effect, ev, s)
                            witness = (
                                None
                                if verdict.witness is None
                                else tuple(c.value for c in verdict.witness)
                            )
                            mode = verdict.intervention
                            lines["dependence"].append(
                                repr((verdict.kind.value, witness, type(mode).__name__,
                                      getattr(mode, "angle", None)))
                            )
                    if ob is not None:
                        r = local_causality_readings(s)
                        lines["readings"].append(repr(dataclasses.astuple(r)))
    return lines


def test_chance_layer_is_bit_identical():
    lines = _chance_layer_lines()
    digests = {
        key: hashlib.sha256("\n".join(values).encode()).hexdigest()
        for key, values in lines.items()
    }
    assert digests == CHANCE_GOLDEN
