import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.chance import (
    JointTarget,
    NoChanceDefinedError,
    OutcomeTarget,
    chance_at,
    joint_vertical,
    vertical_outcome,
)
from bellsim.cli import main
from bellsim.quantum import OutcomeLabel, Wing, product_polarized
from bellsim.spacetime import (
    CausalRelation,
    Outcome,
    Preparation,
    Scenario,
    Setting,
    SpacetimePoint,
    backward_cone_contents,
    causal_relation,
    in_causal_past,
    is_spacelike,
    load_scenario,
    standard_scenario,
)

PAST = CausalRelation.CAUSAL_PAST
FUTURE = CausalRelation.CAUSAL_FUTURE
SPACELIKE = CausalRelation.SPACELIKE

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
points = st.builds(SpacetimePoint, t=coords, x=coords)
rapidities = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def transformed(scenario: Scenario, scale: float, zeta: float, q=None) -> Scenario:
    """``scenario`` scaled by ``scale`` and boosted by ``zeta``; ``q``, if
    given, replaces the probe q before scaling."""

    def move(point):
        return SpacetimePoint(point.t * scale, point.x * scale).boosted(zeta)

    return Scenario(
        state=scenario.state,
        events=tuple(dataclasses.replace(ev, point=move(ev.point)) for ev in scenario.events),
        p=move(scenario.p), p_prime=move(scenario.p_prime),
        q=move(scenario.q if q is None else SpacetimePoint(*q)), r=move(scenario.r),
    )


def far_apart(p: SpacetimePoint, q: SpacetimePoint) -> bool:
    """Null-coordinate gap large enough that classification is unambiguous."""
    u = (q.t - p.t) - (q.x - p.x)
    w = (q.t - p.t) + (q.x - p.x)
    return min(abs(u), abs(w)) > 1e-6


class TestCausalRelation:
    def test_timelike_past(self):
        assert causal_relation(SpacetimePoint(1, 0), SpacetimePoint(0, 0)) is PAST

    def test_equal_time_is_spacelike(self):
        assert causal_relation(SpacetimePoint(0, 0), SpacetimePoint(0, 1)) is SPACELIKE

    def test_lightlike_boundary_counts_as_causal(self):
        assert causal_relation(SpacetimePoint(1, 1), SpacetimePoint(0, 0)) is PAST
        assert causal_relation(SpacetimePoint(0, 0), SpacetimePoint(1, 1)) is FUTURE

    def test_same_point_belongs_to_its_own_cone(self):
        p = SpacetimePoint(2.0, -3.0)
        assert in_causal_past(p, p)

    @given(points, points)
    @settings(max_examples=300)
    def test_antisymmetry(self, p, q):
        if not far_apart(p, q):  # coincident-within-tolerance pairs are degenerate
            return
        forward = causal_relation(p, q)
        backward = causal_relation(q, p)
        if forward is PAST:
            assert backward is FUTURE
        elif forward is FUTURE:
            assert backward is PAST
        else:
            assert backward is SPACELIKE

    @given(points, points, points)
    @settings(max_examples=300)
    def test_transitivity_of_precedence(self, p, q, r):
        if in_causal_past(p, q) and in_causal_past(q, r):
            assert in_causal_past(p, r)

    @given(points, points, rapidities)
    @settings(max_examples=300)
    def test_boost_preserves_classification(self, p, q, zeta):
        if not far_apart(p, q):
            return
        before = causal_relation(p, q)
        after = causal_relation(p.boosted(zeta), q.boosted(zeta))
        assert before is after


class TestStandardScenario:
    def test_default_layout_keeps_setting_remote(self):
        s = standard_scenario()
        outcome_a = s.outcome_event(Wing.A)
        setting_b = s.setting_event(Wing.B)
        assert is_spacelike(outcome_a.point, setting_b.point)

    def test_late_settings_outside_overlap(self):
        s = standard_scenario()
        for wing in (Wing.A, Wing.B):
            setting = s.setting_event(wing)
            remote_outcome = s.outcome_event(wing.other())
            assert is_spacelike(setting.point, remote_outcome.point)
            # outside the overlap: not in the remote outcome's backward cone
            assert not in_causal_past(setting.point, remote_outcome.point)

    def test_overlap_settings_precede_both_outcomes(self):
        s = standard_scenario(settings_in_overlap=True)
        for wing in (Wing.A, Wing.B):
            setting = s.setting_event(wing)
            for target in (Wing.A, Wing.B):
                assert in_causal_past(setting.point, s.outcome_event(target).point)

    def test_source_precedes_both_outcomes(self):
        s = standard_scenario()
        o = s.preparation_event()
        for wing in (Wing.A, Wing.B):
            assert in_causal_past(o.point, s.outcome_event(wing).point)

    def test_unmeasured_wing_cannot_have_outcome(self):
        with pytest.raises(ValueError, match="no measurement"):
            standard_scenario(angle_b=None, outcome_b=OutcomeLabel.V)

    def test_unmeasured_wing_has_no_outcome_event(self):
        s = standard_scenario(angle_b=None, outcome_b=None)
        assert s.outcome_event(Wing.B) is None
        assert s.setting_event(Wing.B).kind.angle is None

    def test_probe_lookup(self):
        s = standard_scenario()
        assert s.probe("p'") == s.p_prime
        with pytest.raises(KeyError):
            s.probe("z")


class TestScenarioValidation:
    def test_duplicate_outcome_rejected(self):
        import dataclasses

        s = standard_scenario()
        extra = dataclasses.replace(s.outcome_event(Wing.A), id="outcome-a-again")
        with pytest.raises(ValueError, match="duplicate"):
            s.with_events(list(s.events) + [extra])

    def test_outcome_without_setting_rejected(self):
        s = standard_scenario()
        stripped = [ev for ev in s.events if not (
            isinstance(ev.kind, Setting) and ev.kind.wing is Wing.B)]
        with pytest.raises(ValueError, match="requires a setting"):
            s.with_events(stripped)

    def test_probe_geometry_enforced(self):
        s = standard_scenario()
        # drag the B outcome into p's causal past
        moved = [
            ev if not (isinstance(ev.kind, Outcome) and ev.kind.wing is Wing.B)
            else type(ev)(id=ev.id, point=SpacetimePoint(0.5, -3.9), region=ev.region, kind=ev.kind)
            for ev in s.events
        ]
        with pytest.raises(ValueError):
            s.with_events(moved)


class TestBackwardCone:
    def test_q_sees_remote_outcome_but_not_local(self):
        s = standard_scenario(settings_in_overlap=True)
        ids = {ev.id for ev in backward_cone_contents(s.q, s)}
        assert ids == {"o", "setting-a", "setting-b", "outcome-b"}

    def test_p_sees_settings_only(self):
        s = standard_scenario(settings_in_overlap=True)
        ids = {ev.id for ev in backward_cone_contents(s.p, s)}
        assert ids == {"o", "setting-a", "setting-b"}

    def test_far_future_sees_everything(self):
        s = standard_scenario()
        everything = backward_cone_contents(SpacetimePoint(1000.0, 0.0), s)
        assert {ev.id for ev in everything} == {ev.id for ev in s.events}

    def test_far_past_sees_nothing(self):
        s = standard_scenario()
        assert backward_cone_contents(SpacetimePoint(-100.0, 0.0), s) == ()

    def test_monotone_along_causal_order(self):
        s = standard_scenario(settings_in_overlap=True)
        probes = [s.p, s.p_prime, s.q, s.r, SpacetimePoint(20.0, 0.0)]
        for p1 in probes:
            for p2 in probes:
                if in_causal_past(p1, p2):
                    inner = {ev.id for ev in backward_cone_contents(p1, s)}
                    outer = {ev.id for ev in backward_cone_contents(p2, s)}
                    assert inner <= outer


class TestSerialization:
    @pytest.mark.parametrize("overlap", [True, False])
    def test_round_trip_identity(self, overlap):
        s = standard_scenario(
            settings_in_overlap=overlap, angle_a=12.5, angle_b=101.25,
            outcome_a=OutcomeLabel.H, outcome_b=OutcomeLabel.V,
        )
        restored = Scenario.from_json(s.to_json())
        assert restored.to_json() == s.to_json()
        assert restored.angle(Wing.B).degrees == 101.25

    def test_round_trip_complex_state(self):
        vec = [0.5, 0.5j, 0.5, -0.5j]
        s = standard_scenario(state=product_polarized(30.0, 60.0))
        del vec
        restored = Scenario.from_json(s.to_json())
        assert restored.to_json() == s.to_json()

    def test_rejects_unknown_format(self):
        s = standard_scenario()
        data = json.loads(s.to_json())
        data["format"] = "something-else"
        with pytest.raises(ValueError, match="format"):
            Scenario.from_json_dict(data)

    @pytest.mark.parametrize("path, value, part", [
        (("events", 0, "t"), "0.0", "event 0"),
        (("events", 0, "x"), True, "event 0"),
        (("events", 1, "kind", "angle_deg"), "22.5", "event 1"),
        (("events", 3, "kind", "angle_deg"), True, "event 3"),
        (("probes", "q", "t"), "7", "probes"),
        (("probes", "r", "x"), False, "probes"),
        (("state", "matrix_real", 0, 0), "0.5", "state"),
        (("state", "matrix_imag", 1, 2), True, "state"),
        (("events", 2, "u"), "6.0", "event 2"),
    ])
    def test_rejects_non_numbers(self, path, value, part):
        data = standard_scenario().to_json_dict()
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = value
        message = f"malformed scenario {part}: expected a number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario.from_json_dict(data)

    @pytest.mark.parametrize("key", ["matrix_real", "matrix_imag"])
    @pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (0, 1)], ids=["diagonal", "lower", "upper"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_state_entries(self, key, i, j, value):
        data = standard_scenario().to_json_dict()
        data["state"][key][i][j] = value
        message = "malformed scenario state: photon pair state: non-finite entry "
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario.from_json_dict(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario.from_json(json.dumps(data))

    @staticmethod
    def points(scenario: Scenario) -> list[SpacetimePoint]:
        return [ev.point for ev in scenario.events] + [scenario.probe(n) for n in ("p", "p'", "q", "r")]

    @staticmethod
    def chances(scenario: Scenario) -> dict:
        """Every probe's chance of each target, as exact hex or None."""
        targets = (vertical_outcome(Wing.A), vertical_outcome(Wing.B), joint_vertical())
        values = {}
        for name in ("p", "p'", "q", "r"):
            for i, target in enumerate(targets):
                try:
                    values[name, i] = chance_at(scenario.probe(name), target, scenario).value.hex()
                except NoChanceDefinedError:
                    values[name, i] = None
        return values

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["overlap", "late", "on-cone"]),
        k=st.integers(-20, 20),
        zeta=rapidities,
        angles=st.tuples(st.floats(0.0, 180.0), st.floats(0.0, 180.0)),
    )
    @example(layout="on-cone", k=0, zeta=0.5, angles=(0.0, 22.5))
    def test_round_trip_keeps_relations_and_chances(self, layout, k, zeta, angles):
        """Scaled by 2**k and boosted, or the overlap layout scaled by 2**10
        with q exactly on wing B's outcome cone, then boosted: the reloaded
        scenario has the same causal relations and the same chances."""
        base = standard_scenario(
            settings_in_overlap=layout != "late", angle_a=angles[0], angle_b=angles[1]
        )
        if layout == "on-cone":
            s = transformed(base, 2.0**10, zeta, q=(7.0, 5.0))
        else:
            s = transformed(base, 2.0**k, zeta)
        restored = Scenario.from_json(s.to_json())
        before, after = self.points(s), self.points(restored)
        for p, rp in zip(before, after, strict=True):
            for q, rq in zip(before, after):
                assert causal_relation(rp, rq) is causal_relation(p, q)
        assert self.chances(restored) == self.chances(s)

    def test_old_files_without_null_coordinates_load_as_before(self):
        s = transformed(standard_scenario(settings_in_overlap=True), 1.0, 0.7)
        data = s.to_json_dict()
        for entry in [*data["events"], *data["probes"].values()]:
            del entry["u"], entry["w"]
        restored = Scenario.from_json_dict(data)
        for p, rp in zip(self.points(s), self.points(restored), strict=True):
            assert (rp.t, rp.x, rp.u, rp.w) == (p.t, p.x, p.t - p.x, p.t + p.x)

    @pytest.mark.parametrize("edit, message", [
        (lambda q: q.update(u=math.nextafter(q["u"], math.inf)), "null coordinates u="),
        (lambda q: q.pop("w"), "missing key 'w'"),
        (lambda q: q.pop("u"), "missing key 'u'"),
    ], ids=["inconsistent-u", "lone-u", "lone-w"])
    def test_rejects_inconsistent_null_coordinates(self, edit, message):
        data = transformed(standard_scenario(), 1.0, 0.7).to_json_dict()
        edit(data["probes"]["q"])
        with pytest.raises(ValueError, match=re.escape(f"malformed scenario probes: {message}")):
            Scenario.from_json_dict(data)

    def test_events_preserved(self):
        s = standard_scenario(angle_b=None, outcome_b=None)
        restored = Scenario.from_json(s.to_json())
        assert restored.outcome_event(Wing.B) is None
        assert isinstance(restored.preparation_event().kind, Preparation)


SCALES = (1.0, 1e3, 1e5, 1e6)


def assert_boost_keeps_order(p: SpacetimePoint, q: SpacetimePoint, zeta: float) -> bool:
    """PAST survives the boost. FUTURE survives it unless both boosted null
    gaps are 0 (two points merged by rounding, which is PAST). SPACELIKE
    survives it unless the boosted null gap is exactly 0 (a near-lightlike
    pair tied by rounding). Returns whether the pair tied."""
    before = causal_relation(p, q)
    bp, bq = p.boosted(zeta), q.boosted(zeta)
    after = causal_relation(bp, bq)
    if before is SPACELIKE and after is not SPACELIKE:
        assert bq.u == bp.u or bq.w == bp.w, (p, q, zeta)
        return True
    if before is FUTURE and after is PAST:
        assert bq.u == bp.u and bq.w == bp.w, (p, q, zeta)
        return True
    assert after is before, (p, q, zeta)
    return False


@st.composite
def scaled_pairs(draw):
    """A point at one of SCALES and a second point that is either generic or
    within a few ulps of the scale from the first one's light cone."""
    scale = draw(st.sampled_from(SCALES))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    p = SpacetimePoint(draw(unit) * scale, draw(unit) * scale)
    if draw(st.booleans()):
        return p, SpacetimePoint(draw(unit) * scale, draw(unit) * scale)
    d = draw(unit) * scale
    direction = draw(st.sampled_from((-1.0, 1.0)))
    nudge = draw(st.integers(-4, 4)) * math.ulp(scale)
    return p, SpacetimePoint(p.t + d + nudge, p.x + direction * d)


class TestExactBoosts:
    @given(scaled_pairs(), rapidities)
    @example(
        pair=(SpacetimePoint(0.0, 1e6), SpacetimePoint(1.1641532182693481e-10, 1e6)),
        zeta=0.875,
    )
    @settings(max_examples=500)
    def test_boost_never_reverses_an_order(self, pair, zeta):
        assert_boost_keeps_order(*pair, zeta)

    def test_boost_never_reverses_an_order_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        ties = 0
        for scale in SCALES:
            for _ in range(2000):
                t, x, d = rng.uniform(-scale, scale, size=3)
                p = SpacetimePoint(t, x)
                near = SpacetimePoint(t + d + int(rng.integers(-4, 5)) * math.ulp(scale),
                                      x + rng.choice((-1.0, 1.0)) * d)
                generic = SpacetimePoint(*rng.uniform(-scale, scale, size=2))
                zeta = float(rng.uniform(-2.0, 2.0))
                ties += assert_boost_keeps_order(p, near, zeta)
                assert not assert_boost_keeps_order(p, generic, zeta)
        assert ties > 0  # the sweep reaches the tie case it allows

    @given(
        st.integers(-2**20, 2**20), st.integers(-2**20, 2**20),
        st.integers(-2**20, 2**20), st.sampled_from((-1, 1)), rapidities,
    )
    @settings(max_examples=300)
    def test_exactly_lightlike_pair_keeps_its_class(self, t, x, d, direction, zeta):
        p = SpacetimePoint(t / 2**10, x / 2**10)
        q = SpacetimePoint((t + d) / 2**10, (x + direction * d) / 2**10)
        before = causal_relation(p, q)
        assert before is (FUTURE if d > 0 else PAST)
        assert causal_relation(p.boosted(zeta), q.boosted(zeta)) is before

    def test_boosted_null_coordinates_scale_exactly(self):
        p = SpacetimePoint(3.0, 1.0).boosted(0.5)
        assert (p.u, p.w) == (2.0 * math.exp(0.5), 4.0 / math.exp(0.5))
        assert (p.t, p.x) == (p.u / 2 + p.w / 2, p.w / 2 - p.u / 2)

    def test_on_cone_scaled_and_boosted_build(self):
        """The overlap layout scaled by 2**10, with q moved exactly onto wing
        B's outcome light cone and everything boosted by 5/32, still builds,
        and q conditions on the B outcome it sees."""
        base = standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=22.5)
        on_cone = transformed(base, 2.0**10, 5.0 / 32.0, q=(7.0, 5.0))
        assert causal_relation(on_cone.q, on_cone.outcome_event(Wing.B).point) is PAST
        value = chance_at(on_cone.q, vertical_outcome(Wing.A), on_cone).value
        assert value == pytest.approx(math.cos(math.radians(22.5)) ** 2, abs=1e-12)


class TestNonFiniteNullCoordinates:
    def test_overflowing_null_coordinate_rejected(self):
        with pytest.raises(ValueError, match="must be finite") as info:
            SpacetimePoint(1e308, 1e308)
        assert "\n" not in str(info.value)

    def test_overflowing_boost_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            SpacetimePoint(1e308, -1e308 / 2).boosted(2.0)

    def test_cli_reports_overflowing_point(self, capsys):
        code = main(["chances", "--scenario", "overlap", "--point", "1e308,1e308",
                     "--target", "eA"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestEventIndex:
    def test_accessors_read_the_index_built_once(self, monkeypatch):
        import bellsim.spacetime as spacetime

        s = standard_scenario()
        calls = []
        real = spacetime._events_by_kind
        monkeypatch.setattr(spacetime, "_events_by_kind",
                            lambda events: calls.append(1) or real(events))
        assert s.preparation_event().id == "o"
        assert s.setting_event(Wing.A).id == "setting-a"
        assert s.outcome_event(Wing.B).id == "outcome-b"
        assert s.angle(Wing.B).degrees == 0.0
        assert calls == []

    def test_index_is_rebuilt_for_new_events(self):
        s = standard_scenario()
        stripped = s.with_events(ev for ev in s.events if ev.id != "outcome-b")
        assert stripped.outcome_event(Wing.B) is None
        assert s.outcome_event(Wing.B) is not None
        assert stripped == s.with_events(stripped.events)


class TestKeptLayouts:
    """``load_scenario`` returns one object per built-in layout; its
    payload edits return copies and leave it as it was."""

    @pytest.mark.parametrize("name", ["overlap", "late"])
    def test_a_layout_is_one_object(self, name):
        assert load_scenario(name) is load_scenario(name)
        assert load_scenario(name) == standard_scenario(settings_in_overlap=name == "overlap")

    def test_standard_scenario_builds_a_new_object(self):
        assert standard_scenario() is not standard_scenario()
        overlap = standard_scenario(settings_in_overlap=True)
        assert overlap is not standard_scenario(settings_in_overlap=True)
        assert overlap is not load_scenario("overlap")

    @pytest.mark.parametrize("name", ["overlap", "late"])
    def test_edits_leave_the_kept_layout_unchanged(self, name):
        kept = load_scenario(name)
        labels = (OutcomeLabel.V, OutcomeLabel.H)
        targets = [OutcomeTarget(wing, label) for wing in (Wing.A, Wing.B) for label in labels]
        targets += [JointTarget(a, b) for a in labels for b in labels]

        def snapshot():
            chances = {}
            for probe in ("p", "p'", "q", "r"):
                for target in targets:
                    try:
                        chances[probe, target] = chance_at(kept.probe(probe), target, kept).value.hex()
                    except NoChanceDefinedError as exc:
                        chances[probe, target] = str(exc)
            preparations, settings_by_wing, outcomes_by_wing = kept._by_kind
            index = (list(preparations), dict(settings_by_wing), dict(outcomes_by_wing))
            return kept.events, index, chances, kept.state

        events, index, chances, state = snapshot()
        old_setting = kept.setting_event(Wing.A)
        edits = [
            kept.with_setting(Wing.B, None),
            kept.with_setting(Wing.A, 12.5),
            kept.with_outcome(Wing.A, OutcomeLabel.H),
            kept.with_state(product_polarized(30.0, 60.0)),
        ]
        edits.append(edits[0].with_setting(Wing.A, 12.5).with_outcome(Wing.A, OutcomeLabel.H)
                     .with_state(product_polarized(30.0, 60.0)))
        assert edits[1].setting_event(Wing.A) == dataclasses.replace(
            old_setting, kind=Setting(Wing.A, edits[1].angle(Wing.A)))
        after_events, after_index, after_chances, after_state = snapshot()
        assert after_events is events
        assert all(a is b for a, b in zip(after_index[0], index[0], strict=True))
        for before, after in zip(index[1:], after_index[1:]):
            assert list(after) == list(before)
            assert all(after[wing] is before[wing] for wing in before)
        assert after_chances == chances
        assert after_state is state
        assert load_scenario(name) is kept
