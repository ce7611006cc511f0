import copy
import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellsim import quantum
from bellsim.locality import quantum_model
from bellsim.quantum import (
    PHI_PLUS,
    ZERO_PROBABILITY,
    AnalyzerAngle,
    OutcomeLabel,
    PhotonPairState,
    SingleWingState,
    UndefinedConditionalError,
    Wing,
    as_angle,
    axis_ket,
    bell_phi_plus,
    born_conditional,
    born_joint,
    born_marginal,
    product_polarized,
    reduced_state,
)
from bellsim.spacetime import load_scenario, standard_scenario

V, H = OutcomeLabel.V, OutcomeLabel.H


def cos2(degrees: float) -> float:
    return math.cos(math.radians(degrees)) ** 2


def maximally_mixed_pair() -> PhotonPairState:
    return PhotonPairState(np.eye(4, dtype=complex) / 4.0)


def random_state(seed: int) -> PhotonPairState:
    """Valid random density operator: G G+ normalized is exactly Hermitian."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return PhotonPairState(m / m.trace())


angle_floats = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)


class TestAnalyzerAngle:
    def test_normalizes_to_half_turn(self):
        assert AnalyzerAngle(-22.5).degrees == 157.5
        assert AnalyzerAngle(180.0).degrees == 0.0
        assert AnalyzerAngle(365.0).degrees == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AnalyzerAngle(float("nan"))

    @given(angle_floats)
    def test_range_invariant(self, degrees):
        assert 0.0 <= AnalyzerAngle(degrees).degrees < 180.0


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        m[0, 0] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            PhotonPairState(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            PhotonPairState(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            PhotonPairState(m)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (1, 0), (0, 1)],
                             ids=["diagonal", "last-diagonal", "lower", "upper"])
    @pytest.mark.parametrize("cls, what", [(PhotonPairState, "photon pair state"),
                                           (SingleWingState, "single wing state")])
    def test_rejects_non_finite_entries(self, cls, what, i, j, value):
        """NaN fails no comparison and eigvalsh reads one triangle, so a
        non-finite entry is refused before either runs."""
        dim = 4 if cls is PhotonPairState else 2
        m = np.eye(dim, dtype=complex) / dim
        m[i, j] = value
        with pytest.raises(ValueError, match=f"^{what}: non-finite entry "):
            cls(m)

    @pytest.mark.parametrize(
        "diagonal, message",
        [
            # lowest eigenvalue -1e-11: born_joint(s, 0, 0) once gave hh = -1e-11
            ([0.5 + 1e-11, 0.5, 0.0, -1e-11], "photon pair state: negative eigenvalue"),
            # lowest eigenvalue -0.9e-10: both reduced states once failed in born_marginal
            ([0.5 + 0.9e-10, 0.5 + 0.9e-10, -0.9e-10, -0.9e-10], "negative eigenvalue"),
            # a pair floor that passes but a reduced state at -1.8e-12
            ([0.5 + 0.9e-12, 0.5 + 0.9e-12, -0.9e-12, -0.9e-12], "reduced single wing state"),
        ],
    )
    def test_rejects_states_whose_born_probabilities_leave_the_tolerance(self, diagonal, message):
        with pytest.raises(ValueError, match=message):
            PhotonPairState(np.diag(diagonal).astype(complex))

    @pytest.mark.parametrize("eps", [1e-13, 4e-13])
    def test_accepted_near_edge_state_is_safe_for_every_born_call(self, eps):
        state = PhotonPairState(np.diag([0.5 + eps, 0.5, 0.0, -eps]).astype(complex))
        for a in (0.0, 30.0, 90.0):
            for b in (0.0, 45.0, 90.0):
                born_joint(state, a, b)
                for wing in (Wing.A, Wing.B):
                    born_marginal(state, wing, a)
                    for label in (V, H):
                        try:
                            born_conditional(state, a, b, given=(wing, label))
                        except UndefinedConditionalError:
                            pass

    def test_single_wing_states_compare_entry_for_entry(self):
        mixed = reduced_state(bell_phi_plus(), Wing.A)
        polarized = reduced_state(product_polarized(0.0, 30.0), Wing.A)
        assert (mixed == SingleWingState(np.eye(2) / 2)) is True
        assert (mixed == polarized) is False
        assert (mixed != polarized) is True
        assert (mixed == bell_phi_plus()) is False
        assert (mixed == "mixed") is False

    @pytest.mark.parametrize("state", [bell_phi_plus(), reduced_state(PHI_PLUS, Wing.B)],
                             ids=["pair", "single-wing"])
    def test_states_are_unhashable(self, state):
        with pytest.raises(TypeError, match="unhashable"):
            hash(state)

    def test_matrix_is_immutable(self):
        state = bell_phi_plus()
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 2.0


class TestStateEquality:
    """Pair states compare by their density matrices, entry for entry."""

    def test_equal_states_that_are_distinct_objects(self):
        first, second = bell_phi_plus(), bell_phi_plus()
        assert first is not second
        assert first == second
        assert not first != second
        assert first == first

    def test_unequal_states(self):
        assert bell_phi_plus() != maximally_mixed_pair()
        assert product_polarized(0.0, 45.0) != product_polarized(45.0, 0.0)
        assert bell_phi_plus() != "phi+"

    def test_scenarios_with_equal_states_are_equal(self):
        assert standard_scenario() == standard_scenario()
        assert standard_scenario() != standard_scenario(state=maximally_mixed_pair())


class TestDefaultState:
    """Without a state, the quantum model and the canonical layouts share
    ``PHI_PLUS``, built and checked once at import."""

    def test_one_read_only_object_equal_to_bell_phi_plus(self):
        assert PHI_PLUS == bell_phi_plus()
        assert PHI_PLUS is not bell_phi_plus()
        assert not PHI_PLUS.matrix.flags.writeable
        with pytest.raises(ValueError):
            PHI_PLUS.matrix[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            PHI_PLUS.matrix = np.eye(4)
        for scenario in (standard_scenario(), standard_scenario(settings_in_overlap=True),
                         load_scenario("overlap"), load_scenario("late")):
            assert scenario.state is PHI_PLUS

    def test_defaults_build_and_check_no_state(self, monkeypatch):
        grid = (0.0, 22.5, 45.0, 157.5)
        expected = quantum_model(bell_phi_plus()).table(grid)

        def refuse(*args):
            raise AssertionError("a default state was built and checked again")

        monkeypatch.setattr(quantum, "_check_density", refuse)
        assert np.array_equal(quantum_model().table(grid), expected)
        assert standard_scenario(angle_a=30.0).state is PHI_PLUS
        with pytest.raises(AssertionError, match="built and checked again"):
            bell_phi_plus()


class TestEnumIdentityHash:
    """``Wing`` and ``OutcomeLabel`` hash by identity: their members are
    singletons and ``==`` is identity, so every key lookup still works."""

    @pytest.mark.parametrize("enum", [Wing, OutcomeLabel])
    def test_members_are_singletons(self, enum):
        assert enum.__hash__ is object.__hash__
        for member in enum:
            assert enum(member.value) is member
            assert enum[member.name] is member
            assert copy.copy(member) is member and copy.deepcopy(member) is member
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(member, protocol)) is member
            assert hash(member) == hash(enum(member.value))
        assert Wing("A") is Wing.A and OutcomeLabel("H") is OutcomeLabel.H

    def test_dict_set_and_functools_keys(self):
        by_wing = {Wing.A: "left", Wing.B: "right"}
        assert by_wing[Wing("A")] == "left" and by_wing[pickle.loads(pickle.dumps(Wing.B))] == "right"
        assert {Wing.A, Wing("A"), Wing.B} == {Wing.A, Wing.B}
        assert {(Wing.A, V): 1}[(Wing("A"), OutcomeLabel("V"))] == 1
        assert Wing.A != "A" and V != "V"

        @functools.lru_cache(maxsize=None)
        def sign(wing: Wing, label: OutcomeLabel) -> int:
            return label.sign if wing is Wing.A else -label.sign

        assert [sign(w, lab) for w in Wing for lab in OutcomeLabel] == [1, -1, -1, 1]
        assert [sign(Wing(w), OutcomeLabel(lab)) for w in "AB" for lab in "VH"] == [1, -1, -1, 1]
        assert sign.cache_info()[:2] == (4, 4)  # (hits, misses)


class TestBellState:
    def test_corner_entry(self):
        # <HH| rho |HH> for the maximally entangled pair
        assert bell_phi_plus().matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_trace_one(self):
        assert bell_phi_plus().matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_pure(self):
        m = bell_phi_plus().matrix
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)


def projector(degrees, label):
    """The (V or H) projector of an analyzer at ``degrees``, as the Born
    functions stack it."""
    return quantum._projectors([degrees])[0, 0 if label is V else 1]


def axis_projector(degrees):
    return np.outer(axis_ket(degrees), axis_ket(degrees))


class TestProjectors:
    def test_vertical_at_reference(self):
        p = projector(0.0, V)
        assert_allclose(p, np.diag([0.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("degrees", [0.0, 13.7, 45.0, 90.0, 120.0, 179.0])
    def test_completeness_and_idempotence(self, degrees):
        pv = projector(degrees, V)
        ph = projector(degrees, H)
        assert_allclose(pv + ph, np.eye(2), atol=1e-12)
        assert_allclose(pv @ pv, pv, atol=1e-12)
        assert_allclose(ph @ ph, ph, atol=1e-12)

    @given(angle_floats)
    @settings(max_examples=200)
    def test_projector_laws_everywhere(self, degrees):
        pv = projector(degrees, V)
        ph = projector(degrees, H)
        assert np.abs(pv + ph - np.eye(2)).max() < 1e-12
        assert np.abs(pv @ pv - pv).max() < 1e-12

    @given(angle_floats)
    @settings(max_examples=200)
    def test_matches_outer_product_reference(self, degrees):
        rad = math.radians(as_angle(degrees).degrees)
        axis = np.array([math.sin(rad), math.cos(rad)])
        orthogonal = np.array([math.cos(rad), -math.sin(rad)])
        for label, ket in ((V, axis), (H, orthogonal)):
            assert np.array_equal(projector(degrees, label), np.outer(ket, ket))

    def test_diagonal_projector_entries_at_45(self):
        # direct trig: cos 45 = sin 45 = sqrt(2)/2, every entry magnitude 1/2
        p = projector(45.0, V)
        assert_allclose(np.abs(p), 0.5, atol=1e-12)


class TestBornJoint:
    def test_perfect_correlation_aligned(self):
        j = born_joint(bell_phi_plus(), 33.0, 33.0)
        assert j.vv == pytest.approx(0.5, abs=1e-12)
        assert j.vh == pytest.approx(0.0, abs=1e-12)
        assert j.hv == pytest.approx(0.0, abs=1e-12)
        assert j.hh == pytest.approx(0.5, abs=1e-12)

    def test_half_cos_squared(self):
        # oracle: (1/2) cos^2(22.5 deg) = 0.4267766952966369
        j = born_joint(bell_phi_plus(), 0.0, 22.5)
        assert j.vv == pytest.approx(0.5 * cos2(22.5), abs=1e-12)
        assert j.vv == pytest.approx(0.4267767, abs=1e-7)

    @given(st.integers(0, 10_000), angle_floats, angle_floats)
    @settings(max_examples=150, deadline=None)
    def test_normalization_any_state(self, seed, a, b):
        j = born_joint(random_state(seed), a, b)
        entries = (j.vv, j.vh, j.hv, j.hh)
        assert all(0.0 <= e <= 1.0 for e in entries)
        assert sum(entries) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000), angle_floats, angle_floats, angle_floats)
    @settings(max_examples=150, deadline=None)
    def test_no_signalling_exact(self, seed, a, b1, b2):
        state = random_state(seed)
        m1 = born_joint(state, a, b1).marginal(Wing.A)
        m2 = born_joint(state, a, b2).marginal(Wing.A)
        assert m1.v == pytest.approx(m2.v, abs=1e-12)
        assert m1.h == pytest.approx(m2.h, abs=1e-12)

    def test_deterministic_limit_product_eigenstate(self):
        j = born_joint(product_polarized(30.0, 75.0), 30.0, 75.0)
        assert j.vv == pytest.approx(1.0, abs=1e-12)
        assert j.vh == pytest.approx(0.0, abs=1e-12)
        assert j.hv == pytest.approx(0.0, abs=1e-12)
        assert j.hh == pytest.approx(0.0, abs=1e-12)

    def test_rejects_malformed_state(self):
        with pytest.raises(ValueError):
            born_joint(np.eye(4, dtype=complex), 0.0, 0.0)


class TestBornMarginal:
    @pytest.mark.parametrize("angle", [0.0, 17.0, 37.0, 90.0, 144.5])
    def test_entangled_marginal_is_half(self, angle):
        pair = born_marginal(bell_phi_plus(), Wing.A, angle)
        assert pair.v == pytest.approx(0.5, abs=1e-12)
        assert pair.h == pytest.approx(0.5, abs=1e-12)

    def test_product_state_eigenvalue(self):
        pair = born_marginal(product_polarized(0.0, 0.0), Wing.A, 0.0)
        assert pair.v == pytest.approx(1.0, abs=1e-12)
        assert pair.h == pytest.approx(0.0, abs=1e-12)

    def test_wing_b_rotation_invariant(self):
        pair = born_marginal(bell_phi_plus(), Wing.B, 37.0)
        assert pair == pytest.approx((0.5, 0.5), abs=1e-12)

    @given(st.integers(0, 10_000), angle_floats)
    @settings(max_examples=100, deadline=None)
    def test_matches_joint_marginal(self, seed, a):
        state = random_state(seed)
        direct = born_marginal(state, Wing.A, a)
        via_joint = born_joint(state, a, 71.0).marginal(Wing.A)
        assert direct.v == pytest.approx(via_joint.v, abs=1e-12)


class TestBornConditional:
    @pytest.mark.parametrize("delta, expected", [(0.0, 1.0), (22.5, cos2(22.5)),
                                                 (45.0, 0.5), (60.0, 0.25), (90.0, 0.0)])
    def test_cos_squared_law(self, delta, expected):
        pair = born_conditional(bell_phi_plus(), 10.0, 10.0 + delta, given=(Wing.B, V))
        assert pair.v == pytest.approx(expected, abs=1e-12)

    def test_counterfactual_sixty_degrees(self):
        pair_v = born_conditional(bell_phi_plus(), 0.0, 60.0, given=(Wing.B, V))
        pair_h = born_conditional(bell_phi_plus(), 0.0, 60.0, given=(Wing.B, H))
        assert pair_v.v == pytest.approx(0.25, abs=1e-12)
        assert pair_h.v == pytest.approx(0.75, abs=1e-12)

    def test_zero_probability_conditioning_rejected(self):
        with pytest.raises(UndefinedConditionalError):
            born_conditional(product_polarized(0.0, 0.0), 0.0, 0.0, given=(Wing.B, H))

    @given(st.integers(0, 10_000), angle_floats, angle_floats)
    @settings(max_examples=150, deadline=None)
    def test_chain_rule(self, seed, a, b):
        state = random_state(seed)
        joint = born_joint(state, a, b)
        marg_b = born_marginal(state, Wing.B, b)
        for label in (V, H):
            if marg_b.for_label(label) < 1e-9:
                continue
            cond = born_conditional(state, a, b, given=(Wing.B, label))
            assert cond.v * marg_b.for_label(label) == pytest.approx(
                joint.prob(V, label), abs=1e-12
            )


    @given(
        st.integers(0, 10_000),
        st.booleans(),
        angle_floats,
        angle_floats,
        st.sampled_from(list(Wing)),
        st.sampled_from([V, H]),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_clamped_joint_over_marginal_bit_for_bit(self, seed, product, a, b, wing, label):
        if product:
            state = product_polarized(*np.random.default_rng(seed).uniform(0.0, 180.0, size=2))
        else:
            state = random_state(seed)
        denom = born_marginal(state, wing, a if wing is Wing.A else b).for_label(label)
        if denom <= ZERO_PROBABILITY:
            with pytest.raises(UndefinedConditionalError):
                born_conditional(state, a, b, given=(wing, label))
            return
        joint = born_joint(state, a, b)
        pair = born_conditional(state, a, b, given=(wing, label))
        for outcome in (V, H):
            entry = joint.prob(label, outcome) if wing is Wing.A else joint.prob(outcome, label)
            assert pair.for_label(outcome) == min(max(entry / denom, 0.0), 1.0)


    def test_near_orthogonal_product_states_do_not_raise(self):
        """Conditioning a product state on wing A's V at t + 90 + delta
        degrees, where the marginal is sin^2(delta) ~ 1e-14..1e-9, divides
        the einsums' ~1e-16 rounding by it: raw ratios overshoot 1 by up to
        ~1e-2, which must be clamped rather than raised."""
        rng = np.random.default_rng(20261018)
        overshoots = 0
        for t, u, b, delta in zip(*rng.uniform(0.0, 180.0, size=(3, 2000)),
                                  rng.uniform(-1e-4, 1e-4, size=2000)):
            state, a = product_polarized(t, u), t + 90.0 + delta
            denom = born_marginal(state, Wing.A, a).v
            if denom <= ZERO_PROBABILITY:
                continue
            joint = born_joint(state, a, b)
            pair = born_conditional(state, a, b, given=(Wing.A, V))
            for outcome in (V, H):
                ratio = joint.prob(V, outcome) / denom
                overshoots += ratio > 1.0 + 1e-12
                assert pair.for_label(outcome) == min(max(ratio, 0.0), 1.0)
        assert overshoots > 0  # the sweep reaches the rounding-overshoot branch


def correlation(state, a, b):
    return born_joint(state, a, b).correlation()


class TestCorrelation:
    def test_aligned(self):
        assert correlation(bell_phi_plus(), 18.0, 18.0) == pytest.approx(1.0, abs=1e-12)

    def test_cos_double_angle(self):
        # oracle: E = cos 2(a-b) from the joint table itself
        assert correlation(bell_phi_plus(), 0.0, 22.5) == pytest.approx(
            math.cos(math.radians(45.0)), abs=1e-12
        )

    def test_orthogonal(self):
        assert correlation(bell_phi_plus(), 0.0, 90.0) == pytest.approx(-1.0, abs=1e-12)

    @given(angle_floats, angle_floats, st.floats(-180.0, 180.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_depends_only_on_separation(self, a, b, shift):
        base = correlation(bell_phi_plus(), a, b)
        rotated = correlation(bell_phi_plus(), a + shift, b + shift)
        assert base == pytest.approx(rotated, abs=1e-12)


class TestReducedState:
    def test_entangled_reduces_to_mixed(self):
        for wing in (Wing.A, Wing.B):
            reduced = reduced_state(bell_phi_plus(), wing)
            assert_allclose(reduced.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_product_state_unchanged(self):
        reduced = reduced_state(product_polarized(0.0, 0.0), Wing.A)
        assert_allclose(reduced.matrix, axis_projector(0.0), atol=1e-12)

    def test_maximally_mixed(self):
        reduced = reduced_state(maximally_mixed_pair(), Wing.B)
        assert_allclose(reduced.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_built_once_per_state_and_wing(self):
        state = random_state(3)
        for wing in (Wing.A, Wing.B):
            assert reduced_state(state, wing) is reduced_state(state, wing)
        assert reduced_state(state, Wing.A) is not reduced_state(state, Wing.B)
        assert reduced_state(random_state(3), Wing.A) is not reduced_state(state, Wing.A)

    @given(st.integers(0, 10_000), angle_floats)
    @settings(max_examples=100, deadline=None)
    def test_cached_marginal_is_bit_identical(self, seed, angle):
        state = random_state(seed)
        traced = {
            Wing.A: np.einsum("ikjk->ij", state.matrix.reshape(2, 2, 2, 2)),
            Wing.B: np.einsum("kikj->ij", state.matrix.reshape(2, 2, 2, 2)),
        }
        for wing, local in traced.items():
            assert np.array_equal(reduced_state(state, wing).matrix, local)
            p_v = float(np.einsum("ij,ji->", local, axis_projector(angle)).real)
            first = born_marginal(state, wing, angle)
            assert born_marginal(state, wing, angle) == first
            assert first.v == pytest.approx(p_v, abs=1e-15)
