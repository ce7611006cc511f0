import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import locality
from bellsim.harness import MODELS
from bellsim.hidden_variables import (
    LhvModel,
    all_strategies,
    builtin_vector_model,
    strategy_model,
)
from bellsim.locality import (
    ProbabilityModel,
    CONDITION_TOL,
    SKIP_PROBABILITY,
    ConditionReport,
    check_factorizability,
    check_no_signalling,
    check_outcome_independence,
    check_parameter_independence,
    chsh,
    default_angle_grid,
    no_signalling_deviation,
    quantum_model,
    signalling_fixture_model,
)
from bellsim.quantum import (
    PhotonPairState,
    Wing,
    as_angle,
    bell_phi_plus,
    born_joint,
    product_polarized,
)

from strategies import density_matrices

GRID = default_angle_grid(8)  # multiples of 22.5 degrees, includes aligned pairs


@pytest.fixture(scope="module")
def quantum():
    return quantum_model()


@pytest.fixture(scope="module")
def vector_lhv():
    return builtin_vector_model()


def _fair(degrees):
    return np.full((degrees.size, 2), 0.5)


#: A two-lambda model from its prior, through each public constructor.
_PRIOR_BUILDERS = [
    pytest.param(lambda w: ProbabilityModel(w, quantum_model().kernel), id="ProbabilityModel"),
    pytest.param(lambda w: LhvModel(w, (_fair, _fair)), id="LhvModel"),
    pytest.param(lambda w: strategy_model(0.0, 45.0, 0.0, 45.0, all_strategies()[:2], w),
                 id="strategy_model"),
]


class TestModelValidation:
    @pytest.mark.parametrize("build", _PRIOR_BUILDERS)
    @pytest.mark.parametrize("weights, message", [
        pytest.param([0.5, math.nan], "non-finite prior weight nan at index 1", id="half-nan"),
        pytest.param([1.0, math.nan], "non-finite prior weight nan at index 1", id="one-nan"),
        pytest.param([math.nan, math.nan], "non-finite prior weight nan at index 0", id="nans"),
        pytest.param([math.inf, 0.0], "non-finite prior weight inf at index 0", id="inf"),
        pytest.param([1.5, -0.5], r"^negative prior weight -0\.5$", id="negative"),
        pytest.param([0.7, 0.7], "sum to", id="unnormalized"),
    ])
    def test_bad_prior_is_refused_at_construction(self, build, weights, message):
        with pytest.raises(ValueError, match=message):
            build(np.array(weights))

    @pytest.mark.parametrize("strategies, weights, message", [
        pytest.param([], None, "at least one strategy", id="no-strategies"),
        pytest.param([], [], "at least one strategy", id="no-strategies-no-weights"),
        pytest.param(all_strategies()[:2], [1.0], "2 strategies need as many weights, got 1",
                     id="short-prior"),
        pytest.param(None, [0.5, 0.5], "16 strategies need as many weights, got 2", id="long-list"),
    ])
    def test_strategy_model_needs_one_weight_per_strategy(self, strategies, weights, message):
        with pytest.raises(ValueError, match=message):
            strategy_model(0.0, 45.0, 0.0, 45.0, strategies, weights)

    def test_empty_grid_rejected(self, quantum):
        with pytest.raises(ValueError, match="nonempty"):
            check_parameter_independence(quantum, [])

    def test_table_is_cached(self, quantum):
        t1 = quantum.table(GRID)
        t2 = quantum.table(list(GRID))
        assert t1 is t2

    def test_second_grid_replaces_the_first(self):
        model = quantum_model()
        first = model.table(GRID)
        second = model.table(GRID[:3])
        assert second.shape[:2] == (3, 3)
        assert model.table(GRID[:3]) is second
        rebuilt = model.table(GRID)
        assert rebuilt is not first
        assert np.array_equal(rebuilt, first)


class TestQuantumSignature:
    """The fourfold pattern: PI holds, OI fails, factorizability fails,
    no-signalling holds."""

    def test_parameter_independence_holds(self, quantum):
        report = check_parameter_independence(quantum, GRID)
        assert report.holds
        assert report.max_deviation <= 1e-12

    def test_outcome_independence_fails_by_half(self, quantum):
        report = check_outcome_independence(quantum, GRID)
        assert not report.holds
        # worst case at aligned settings: conditional 1 vs marginal 1/2
        assert report.max_deviation == pytest.approx(0.5, abs=1e-9)
        assert report.witness["a_deg"] == report.witness["b_deg"]
        assert report.witness["conditional"] == pytest.approx(1.0, abs=1e-9)
        assert report.witness["unconditional"] == pytest.approx(0.5, abs=1e-9)

    def test_factorizability_fails_by_quarter(self, quantum):
        report = check_factorizability(quantum, GRID)
        assert not report.holds
        # joint 1/2 vs product of marginals 1/4 at aligned settings
        assert report.max_deviation == pytest.approx(0.25, abs=1e-9)
        assert report.witness["a_deg"] == report.witness["b_deg"]

    def test_no_signalling_holds(self, quantum):
        assert no_signalling_deviation(quantum, GRID) <= 1e-12

    def test_outcome_independence_invisible_at_45(self):
        # cos^2(45) = 1/2 equals the marginal, so the deviation vanishes
        # at exactly that separation
        joint = born_joint(bell_phi_plus(), 0.0, 45.0)
        conditional = joint.vv / (joint.vv + joint.hv)
        unconditional = joint.vv + joint.vh
        assert abs(conditional - unconditional) == pytest.approx(0.0, abs=1e-12)

    def test_factorizability_invisible_at_45(self):
        # joint 1/4 equals the product of the 1/2 marginals there
        joint = born_joint(bell_phi_plus(), 0.0, 45.0)
        product = joint.marginal(Wing.A).v * joint.marginal(Wing.B).v
        assert abs(joint.vv - product) == pytest.approx(0.0, abs=1e-12)

    def test_product_state_passes_everything(self):
        model = quantum_model(product_polarized(30.0, 120.0))
        assert check_parameter_independence(model, GRID).holds
        assert check_outcome_independence(model, GRID).holds
        assert check_factorizability(model, GRID).holds


class TestLhvSignature:
    def test_all_three_conditions_hold(self, vector_lhv):
        assert check_parameter_independence(vector_lhv, GRID).holds
        assert check_outcome_independence(vector_lhv, GRID).holds
        assert check_factorizability(vector_lhv, GRID).holds

    def test_no_signalling_deviation_zero(self, vector_lhv):
        assert no_signalling_deviation(vector_lhv, GRID) <= 1e-12


class TestSignallingFixture:
    def test_parameter_independence_fails_with_witness(self):
        model = signalling_fixture_model(bias=0.25)
        report = check_parameter_independence(model, GRID)
        assert not report.holds
        assert report.max_deviation == pytest.approx(0.25, abs=1e-12)
        assert report.witness["wing"] == "A"

    def test_no_signalling_deviation_equals_bias(self):
        for bias in (0.1, 0.25):
            model = signalling_fixture_model(bias=bias)
            assert no_signalling_deviation(model, GRID) == pytest.approx(bias, abs=1e-12)

    def test_report_serializes(self):
        report = check_parameter_independence(signalling_fixture_model(), GRID)
        data = report.to_json_dict()
        assert data["condition"] == "parameter_independence"
        assert data["holds"] is False
        assert isinstance(data["witness"], dict)


_CHECKS = (check_parameter_independence, check_outcome_independence,
           check_factorizability, check_no_signalling)


def _assert_json_dict_is_asdict(report: ConditionReport) -> None:
    """``to_json_dict`` against ``dataclasses.asdict``, the deep copy it
    replaced: equal dicts with equal key order, and a new witness dict."""
    data = report.to_json_dict()
    reference = dataclasses.asdict(report)
    assert data == reference and list(data) == list(reference)
    assert [type(v) for v in data.values()] == [type(v) for v in reference.values()]
    if report.witness is not None:
        assert data["witness"] is not report.witness
        data["witness"]["wing"] = "edited"
        data["witness"].clear()
        assert report.witness == reference["witness"]


class TestConditionReportJson:
    @pytest.mark.parametrize("model, signals", [
        pytest.param(quantum_model(), False, id="quantum0"),
        pytest.param(builtin_vector_model(), False, id="vector-lhv"),
        pytest.param(signalling_fixture_model(), True, id="signalling-fixture0"),
        pytest.param(signalling_fixture_model(0.1), True, id="signalling-fixture1"),
        pytest.param(quantum_model(product_polarized(10.0, 80.0)), False, id="quantum1"),
    ])
    @pytest.mark.parametrize("grid", [GRID, (0.0, 45.0, 22.5, -22.5), (100.0,)])
    def test_equals_asdict(self, model, signals, grid):
        reports = [check(model, grid) for check in _CHECKS]
        for report in reports:
            _assert_json_dict_is_asdict(report)
        if signals and len(grid) > 1:
            assert reports[0].witness is not None  # parameter independence fails

    @given(density_matrices(), st.lists(st.floats(0.0, 360.0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_random_density_matrices(self, matrix, grid):
        model = quantum_model(PhotonPairState(matrix))
        for check in _CHECKS:
            _assert_json_dict_is_asdict(check(model, grid))


@st.composite
def factorizable_models(draw):
    """A random factorizable LHV model, or a mixture of up to three, with
    its grid: each part has 1-5 lambdas, a Dirichlet prior and a random
    P(V) per (grid angle, lambda) on each wing."""
    grid = draw(st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=5))
    rows = {as_angle(g).degrees: i for i, g in enumerate(grid)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    mix = rng.dirichlet(np.ones(len(sizes)))
    weights = np.concatenate([share * rng.dirichlet(np.ones(n)) for share, n in zip(mix, sizes)])
    size = len(grid) * len(weights)
    cells = st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
    tables = [np.array(draw(cells)).reshape(len(grid), len(weights)) for _ in "AB"]

    def lookup(table):
        return lambda degrees: table[[rows[d] for d in degrees.tolist()]]

    return LhvModel(weights, (lookup(tables[0]), lookup(tables[1]))), grid


class TestJarrett:
    """Factorizability is parameter independence plus outcome independence
    per lambda (Jarrett, Noûs 18, 1984)."""

    @given(factorizable_models())
    @settings(max_examples=200, deadline=None)
    def test_factorizable_models_satisfy_every_condition(self, case):
        model, grid = case
        assert check_parameter_independence(model, grid).holds
        assert check_outcome_independence(model, grid).holds
        assert check_factorizability(model, grid).holds

    @pytest.mark.xfail(
        strict=True,
        reason="check_factorizability compares the joint with the marginals at the same "
        "(a, b), so it tests outcome independence and misses the fixture's signalling",
    )
    def test_equivalence_holds_on_the_signalling_fixture(self):
        model = signalling_fixture_model()
        pi = check_parameter_independence(model, GRID).holds
        oi = check_outcome_independence(model, GRID).holds
        assert (pi and oi) == check_factorizability(model, GRID).holds


def _opposite_signalling_model():
    """Two equally weighted lambdas whose wing-A P(V) moves by +0.25 and
    -0.25 when the remote analyzer sits at or beyond 90 degrees."""

    def kernel(a_deg, b_deg):
        shift = np.where(b_deg >= 90.0, 0.25, 0.0)[:, None] * np.array([1.0, -1.0])
        p_va = 0.5 + shift  # [b, lambda]
        rows = np.stack([p_va * 0.5, (1.0 - p_va) * 0.5], axis=-1)  # [b, lambda, outcome_a]
        return np.broadcast_to(rows[None, :, :, :, None], (a_deg.size, b_deg.size, 2, 2, 2))

    return ProbabilityModel(np.array([0.5, 0.5]), kernel)


class TestNoSignalling:
    """No-signalling is parameter independence of the lambda-averaged
    marginals: implied by PI, equal to it for one lambda, and weaker."""

    @staticmethod
    def assert_bounded_by_pi(model, grid):
        pi = check_parameter_independence(model, grid)
        ns = check_no_signalling(model, grid)
        assert ns.max_deviation <= pi.max_deviation + CONDITION_TOL
        if model.weights.size == 1:
            assert ns.to_json_dict() == {**pi.to_json_dict(), "condition": "no_signalling"}

    @given(density_matrices(), st.lists(st.floats(0.0, 180.0), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_quantum_models(self, matrix, grid):
        self.assert_bounded_by_pi(quantum_model(PhotonPairState(matrix)), grid)

    @given(factorizable_models())
    @settings(max_examples=100, deadline=None)
    def test_factorizable_models(self, case):
        self.assert_bounded_by_pi(*case)

    def test_single_lambda_fixture_equals_pi(self):
        self.assert_bounded_by_pi(signalling_fixture_model(), GRID)

    def test_strictly_weaker_than_pi(self):
        model = _opposite_signalling_model()
        pi = check_parameter_independence(model, GRID)
        ns = check_no_signalling(model, GRID)
        assert (pi.holds, pi.max_deviation, pi.witness["wing"]) == (False, 0.25, "A")
        assert (ns.holds, ns.max_deviation, ns.witness) == (True, 0.0, None)


PRODUCT_CASE = (product_polarized(134.27070843173806, 22.826654704320234),
                (35.41385192782283, 112.85063974305965))


class TestProductStateOutcomeIndependence:
    """A product state satisfies OI exactly. Here the VV cell, 4.2e-9, is
    divided by a remote marginal of 1.8e-7, which scales its ~1e-17 einsum
    rounding to a 1.5e-10 deviation."""

    def test_factorizability_holds(self):
        state, grid = PRODUCT_CASE
        assert check_factorizability(quantum_model(state), grid).max_deviation <= 1e-15

    @pytest.mark.xfail(strict=True, reason="conditioning amplifies the Born table's rounding")
    def test_outcome_independence_holds(self):
        state, grid = PRODUCT_CASE
        assert check_outcome_independence(quantum_model(state), grid).holds


def _binned_lhv(seed, n_lambda, bins, deterministic=False):
    """A random factorizable model: a Dirichlet prior and, per wing, a
    random P(V | angle bin, lambda) table over ``bins`` equal bins of
    [0, 180), with half of its entries rounded to 0 or 1, or all of them
    when ``deterministic``."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_lambda))

    def response():
        table = rng.uniform(0.0, 1.0, size=(bins, n_lambda))
        extreme = np.full(table.shape, True) if deterministic else rng.random(table.shape) < 0.5
        table[extreme] = np.round(table[extreme])  # deterministic strategies reach 2
        return lambda degrees: table[np.minimum((degrees * bins / 180.0).astype(int), bins - 1)]

    return LhvModel(weights, (response(), response()))


def _response_row_correlation(model, a, b):
    """The reference correlation of an ``LhvModel``, the formula it once
    had a method of its own for: each wing's P(V) row for its angle,
    clamped to [0, 1], as a sign expectation 2 P(V) - 1, and the
    prior-weighted dot of their product."""
    signs = []
    for response, angle in zip(model.responses, (a, b)):
        p_v = np.array(response(np.array([as_angle(angle).degrees])), dtype=float)[0]
        signs.append(2.0 * np.clip(p_v, 0.0, 1.0) - 1.0)
    return float(np.dot(model.weights, signs[0] * signs[1]))


def _chsh_pairs(a, a_prime, b, b_prime):
    """The four CHSH setting pairs, (a, b), (a, b'), (a', b), (a', b')."""
    return (a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)


def _chsh_of(correlation, quad):
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') of ``correlation(a, b)``."""
    e = [correlation(x, y) for x, y in _chsh_pairs(*quad)]
    return e[0] + e[1] + e[2] - e[3]


class TestLhvCorrelation:
    """An ``LhvModel``'s correlation is the reduction of its table, the
    one every model has, and it agrees with the response-row reference:
    bit for bit when every response is 0 or 1, within 4 eps otherwise."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 8),
        st.booleans(),
        st.floats(-360.0, 360.0),
        st.floats(-360.0, 360.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_factorizable_models(self, seed, n_lambda, bins, deterministic, a, b):
        model = _binned_lhv(seed, n_lambda, bins, deterministic)
        got, want = model.correlation(a, b), _response_row_correlation(model, a, b)
        if deterministic:
            assert got == want
        else:
            assert abs(got - want) <= 4 * np.finfo(float).eps

    @given(st.floats(-360.0, 360.0), st.floats(-360.0, 360.0))
    @settings(max_examples=100, deadline=None)
    def test_vector_model_bit_for_bit(self, a, b):
        assert MODELS["lhv"].correlation(a, b) == _response_row_correlation(MODELS["lhv"], a, b)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_strategy_mixtures_bit_for_bit(self, seed):
        quad = (0.0, 45.0, 22.5, -22.5)
        weights = np.random.default_rng(seed).dirichlet(np.full(16, 0.3))
        model = strategy_model(*quad, weights=weights)
        for a, b in itertools.product(quad[:2], quad[2:]):
            assert model.correlation(a, b) == _response_row_correlation(model, a, b)

    def test_one_definition(self):
        assert LhvModel.__dict__["correlation"] is ProbabilityModel.__dict__["correlation"]

    def test_kernel_is_built_not_passed(self):
        with pytest.raises(TypeError, match="kernel"):
            LhvModel(np.ones(1), (_fair, _fair), kernel=quantum_model().kernel)


#: Four analyzer angles, from a small set half of the time, so that quadruples
#: repeat an angle within a wing and across the wings.
_quads = st.lists(
    st.one_of(st.floats(-360.0, 360.0), st.sampled_from([0.0, 22.5, 45.0, -22.5, 180.0])),
    min_size=4,
    max_size=4,
)


#: Pauli z and x in the {|H>, |V>} basis, the analyzers' plane.
_PAULI_ZX = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def _zx_correlations(matrix):
    """T_ij = Tr(rho sigma_i x sigma_j) for i, j in {z, x}."""
    return np.array([[np.trace(matrix @ np.kron(si, sj)).real for sj in _PAULI_ZX]
                     for si in _PAULI_ZX])


def _bloch(degrees):
    """The (z, x) Bloch vector of the V outcome at an analyzer angle: the
    +/-1 observable is -(n_z sigma_z + n_x sigma_x), and the two signs cancel
    in a correlation, so E(a, b) = n(a) . T n(b)."""
    return np.array([math.cos(math.radians(2.0 * degrees)), -math.sin(math.radians(2.0 * degrees))])


def _analyzer_angle(n):
    """The angle, in degrees, whose Bloch vector is the unit vector ``n``."""
    return math.degrees(math.atan2(-n[1], n[0])) / 2.0


class TestChshReferences:
    """``chsh`` against references that share none of its code: the
    ``born_joint`` correlations for the quantum model, the response-row
    formula for LHV models, and the state's tight bound. It reads the model
    once."""

    @given(density_matrices(), _quads)
    @settings(max_examples=200, deadline=None)
    def test_quantum_meets_the_states_tight_bound(self, matrix, quad):
        """For correlations n(a) . T n(b) the largest CHSH value over
        analyzer angles is 2 sqrt(s1^2 + s2^2), s1 and s2 the singular
        values of T: at most that at any angles, and that at the optimal
        ones, a = u1, a' = u2, b and b' = cos(phi) w1 +/- sin(phi) w2 with
        T = U S W^T and tan(phi) = s2 / s1."""
        state = PhotonPairState(matrix)
        model = quantum_model(state)
        t = _zx_correlations(state.matrix)
        u, (s1, s2), wt = np.linalg.svd(t)
        bound = 2.0 * math.hypot(s1, s2)
        value = chsh(model, *quad)
        assert value == pytest.approx(_chsh_of(lambda a, b: _bloch(a) @ t @ _bloch(b), quad),
                                      abs=1e-12)
        assert abs(value) <= bound + 1e-12
        phi = math.atan2(s2, s1)
        w1, w2 = wt
        optimal = (_analyzer_angle(u[:, 0]), _analyzer_angle(u[:, 1]),
                   _analyzer_angle(math.cos(phi) * w1 + math.sin(phi) * w2),
                   _analyzer_angle(math.cos(phi) * w1 - math.sin(phi) * w2))
        assert chsh(model, *optimal) == pytest.approx(bound, abs=1e-12)

    @given(density_matrices(), _quads)
    @settings(max_examples=300, deadline=None)
    def test_quantum_is_the_born_joint_sum(self, matrix, quad):
        state = PhotonPairState(matrix)
        want = _chsh_of(lambda a, b: born_joint(state, a, b).correlation(), quad)
        assert chsh(quantum_model(state), *quad) == want

    @given(_quads)
    @settings(max_examples=100, deadline=None)
    def test_vector_model_bit_for_bit(self, quad):
        want = _chsh_of(lambda a, b: _response_row_correlation(MODELS["lhv"], a, b), quad)
        assert chsh(MODELS["lhv"], *quad) == want

    @given(st.integers(0, 2**32 - 1), st.permutations([0.0, 45.0, 22.5, -22.5, 101.25, 7.0]))
    @settings(max_examples=50, deadline=None)
    def test_strategy_mixtures_bit_for_bit(self, seed, angles):
        quad = angles[:4]
        weights = np.random.default_rng(seed).dirichlet(np.full(16, 0.3))
        model = strategy_model(*quad, weights=weights)
        assert chsh(model, *quad) == _chsh_of(lambda a, b: _response_row_correlation(model, a, b), quad)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8), _quads)
    @settings(max_examples=200, deadline=None)
    def test_fractional_responses(self, seed, n_lambda, bins, quad):
        """With fractional responses ``chsh`` is its model's four
        correlations, bit for bit, each within 4 eps of the reference."""
        model = _binned_lhv(seed, n_lambda, bins)
        assert chsh(model, *quad) == _chsh_of(model.correlation, quad)
        for a, b in _chsh_pairs(*quad):
            assert abs(model.correlation(a, b) - _response_row_correlation(model, a, b)) <= (
                4 * np.finfo(float).eps
            )

    def test_lambda_outermost_kernel(self):
        """A kernel that lays lambda out outermost in memory still gives
        ``chsh`` the sum of its one-cell correlations, bit for bit: each
        cell's dot over lambda runs on a contiguous row either way."""
        rng = np.random.default_rng(5)
        n_lambda = 4099
        cells = rng.dirichlet(np.ones(4), size=n_lambda).reshape(n_lambda, 1, 1, 2, 2)

        def kernel(a_deg, b_deg):
            table = np.empty((n_lambda, a_deg.size, b_deg.size, 2, 2))
            table[:] = cells
            return table.transpose(1, 2, 0, 3, 4)

        model = ProbabilityModel(rng.dirichlet(np.ones(n_lambda)), kernel)
        for quad in rng.uniform(0.0, 180.0, size=(20, 4)):
            assert chsh(model, *quad) == _chsh_of(model.correlation, quad)

    @pytest.mark.parametrize(
        "build",
        [quantum_model, builtin_vector_model, signalling_fixture_model,
         lambda: strategy_model(0.0, 45.0, 22.5, -22.5)],
        ids=["qm", "lhv", "fixture", "strategies"],
    )
    def test_one_cells_read(self, build, monkeypatch):
        model = build()
        reads = []
        cells = ProbabilityModel.cells

        def spy(self, a, b):
            reads.append((tuple(a), tuple(b)))
            return cells(self, a, b)

        monkeypatch.setattr(ProbabilityModel, "cells", spy)
        chsh(model, 0.0, 45.0, 22.5, -22.5)
        assert reads == [((0.0, 45.0), (22.5, -22.5))]
        model.correlation(0.0, 22.5)
        assert reads[1:] == [((0.0,), (22.5,))]

    def test_strategy_model_names_the_first_unknown_angle(self):
        model = strategy_model(0.0, 45.0, 22.5, -22.5)
        for quad, unknown in (((10.0, 11.0, 12.0, 13.0), "10.0"), ((0.0, 11.0, 12.0, 13.0), "11.0"),
                              ((0.0, 45.0, 12.0, 13.0), "12.0"), ((0.0, 45.0, 22.5, 13.0), "13.0")):
            with pytest.raises(ValueError, match=f"angle {unknown} is not one"):
                chsh(model, *quad)


class TestChsh:
    def test_quantum_maximum(self, quantum):
        value = chsh(quantum, 0.0, 45.0, 22.5, -22.5)
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_degenerate_angles(self, quantum):
        assert chsh(quantum, 0.0, 0.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_tsirelson_never_exceeded(self, quantum):
        rng = np.random.default_rng(20260810)
        bound = 2.0 * math.sqrt(2.0) + 1e-9
        for _ in range(10_000):
            a, ap, b, bp = rng.uniform(0.0, 180.0, size=4)
            assert abs(chsh(quantum, a, ap, b, bp)) <= bound

    def test_factorizable_models_stay_classical(self, vector_lhv):
        assert check_factorizability(vector_lhv, GRID).holds
        rng = np.random.default_rng(99)
        degrees = [g.degrees for g in GRID]
        for _ in range(200):
            a, ap, b, bp = rng.choice(degrees, size=4)
            assert abs(chsh(vector_lhv, a, ap, b, bp)) <= 2.0 + 1e-9

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 8),
        st.lists(st.floats(-360.0, 360.0), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_bells_bound_for_random_factorizable_models(self, seed, n_lambda, bins, quad):
        """|CHSH| <= 2 for any factorizable model (Bell's side of the bound):
        a random prior and, per wing, a random P(V | angle bin, lambda)
        table over ``bins`` equal bins of [0, 180), some entries 0 or 1."""
        model = _binned_lhv(seed, n_lambda, bins)
        assert check_factorizability(model, quad).holds
        assert abs(chsh(model, *quad)) <= 2.0 + 1e-12

    def test_global_rotation_invariance(self, quantum):
        base = chsh(quantum, 0.0, 45.0, 22.5, -22.5)
        for shift in (10.0, 33.3, 90.0):
            rotated = chsh(quantum, shift, 45.0 + shift, 22.5 + shift, -22.5 + shift)
            assert rotated == pytest.approx(base, abs=1e-9)

    def test_pi_implies_no_signalling(self, quantum, vector_lhv):
        for model in (quantum, vector_lhv):
            assert check_parameter_independence(model, GRID).holds
            assert no_signalling_deviation(model, GRID) <= 1e-12


# -- golden bytes ----------------------------------------------------------------

#: SHA-256 digests of every checker's output over ``_condition_lines``'s
#: models and grids, captured before the checkers shared one sweep.
CONDITION_GOLDEN = {
    "parameter_independence": "33ed7edcc4be8b5ed69a1454e61053ed8311aae32a9264f33348b7939fb3a7aa",
    "outcome_independence": "09ba8f9c27898ff9c2eea0b75196c80aabc50969ea4273d01e6ef626b87cc7a7",
    "factorizability": "02c1bf03340ecd378688e78124d4716c27bb3712e5eba12358a72091f76157db",
    "no_signalling": "3ac100fb66ba0510c7d6bcaf4c5873ff478b11d621018f4dc3a950fc60a04ae1",
}


def _mirrored(model, share=1.0):
    """``model`` with the wings swapped, mixed with the original at weight
    ``1 - share``, so wing B (or both wings at once) carries the witness."""

    def kernel(a_deg, b_deg):
        swapped = np.swapaxes(np.swapaxes(model.kernel(b_deg, a_deg), 0, 1), 3, 4)
        return share * swapped + (1.0 - share) * model.kernel(a_deg, b_deg)

    return ProbabilityModel(model.weights, kernel)


def _tied_model():
    """Wing B fails OI more than wing A, by the same amount at every a != b,
    so its witness depends on the order in which tied cells are searched."""

    def kernel(a_deg, b_deg):
        same = (a_deg[:, None] == b_deg[None, :])[:, :, None, None, None]
        return np.where(same, 0.25, np.array([[0.0, 0.25], [0.5, 0.25]]))

    return ProbabilityModel(np.array([1.0]), kernel)


def _condition_cases():
    """(model, grid) pairs: quantum states, the vector LHV, the signalling
    fixture, its mirror images and the tied model over plain, random and
    repeated-angle grids, and Dirichlet-weighted strategy mixtures."""
    rng = np.random.default_rng(19840301)
    random_grid = tuple(rng.uniform(0.0, 180.0, size=24).tolist())
    grids = (GRID, random_grid, (0.0, 45.0, 0.0, 90.0, 45.0), (30.0, 210.0, 30.0), (112.5,))
    states = [
        bell_phi_plus(),
        PhotonPairState(np.eye(4, dtype=complex) / 4.0),
        product_polarized(30.0, 120.0),
    ]
    for k in range(6):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if k % 2:
            states.append(PhotonPairState.from_vector(g[0]))
        else:
            m = g @ g.conj().T
            states.append(PhotonPairState(m / m.trace().real))
    models = [quantum_model(state) for state in states]
    fixtures = [signalling_fixture_model(0.25), signalling_fixture_model(0.1)]
    models += [builtin_vector_model(), *fixtures, _mirrored(fixtures[0]), _mirrored(fixtures[1], 0.5)]
    models.append(_tied_model())
    cases = [(model, grid) for model in models for grid in grids]
    for _ in range(4):
        mixture = strategy_model(0.0, 45.0, 0.0, 45.0, weights=rng.dirichlet(np.ones(16)))
        cases += [(mixture, (0.0, 45.0)), (mixture, (45.0, 0.0, 45.0))]
    return cases


def _condition_lines():
    lines = {key: [] for key in CONDITION_GOLDEN}
    for model, grid in _condition_cases():
        for check in (check_parameter_independence, check_outcome_independence, check_factorizability):
            report = check(model, grid)
            lines[report.condition].append(repr(report.to_json_dict()))
        lines["no_signalling"].append(repr(no_signalling_deviation(model, grid)))
    return lines


def test_condition_reports_are_bit_identical():
    digests = {
        key: hashlib.sha256("\n".join(values).encode()).hexdigest()
        for key, values in _condition_lines().items()
    }
    assert digests == CONDITION_GOLDEN


# -- reference: the checkers on the table's own [a, b, lambda, oa, ob] order ---------


def _reference_reports(model, grid):
    """The four reports as the checkers computed them before tables were
    stored and swept with lambda innermost: every wing view and every
    reduction in the table's own order [a, b, lambda, oa, ob]."""
    angles = tuple(as_angle(g) for g in grid)
    table = model.table(angles)
    labels = ("V", "H")
    wings = {}
    for name, order in (("A", (0, 1, 2, 3, 4)), ("B", (1, 0, 2, 4, 3))):
        joint = table.transpose(order)  # [own, remote, lambda, own outcome, remote outcome]
        wings[name] = (order, joint, joint[..., 0] + joint[..., 1])
    remotes = {"A": wings["B"][2].swapaxes(0, 1), "B": wings["A"][2].swapaxes(0, 1)}

    def table_argmax(order, values):
        in_table_order = values.transpose(order)  # each order is its own inverse
        index = np.unravel_index(in_table_order.argmax(), in_table_order.shape)
        return index, tuple(index[k] for k in order)

    def report(condition, deviation, witness):
        holds = deviation <= CONDITION_TOL
        return ConditionReport(condition, holds, deviation, CONDITION_TOL, None if holds else witness)

    def remote_spread(condition, marginals):
        spreads = {w: m.max(axis=1) - m.min(axis=1) for w, m in marginals.items()}
        wing = max(spreads, key=lambda w: spreads[w].max())
        spread = spreads[wing]  # [own setting, lambda, outcome]
        local_i, lam_i, out_i = np.unravel_index(spread.argmax(), spread.shape)
        along = marginals[wing][local_i, :, lam_i, out_i]
        return report(condition, float(spread.max()), {
            "wing": wing,
            "local_angle_deg": angles[local_i].degrees,
            "remote_angle_deg": angles[int(along.argmax())].degrees,
            "remote_angle_alt_deg": angles[int(along.argmin())].degrees,
            "lambda_index": int(lam_i),
            "outcome": labels[out_i],
            "probability_high": float(along.max()),
            "probability_low": float(along.min()),
        })

    pi = remote_spread("parameter_independence", {w: v[2] for w, v in wings.items()})
    ns = remote_spread("no_signalling", {
        w: np.tensordot(v[2], model.weights, axes=([2], [0]))[:, :, None] for w, v in wings.items()
    })
    sweeps = []
    for name, (order, joint, marginal) in wings.items():
        remote = remotes[name][:, :, :, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = joint / remote
            dev = np.abs(cond - marginal[..., None])
        sweeps.append((name, order, joint, marginal, cond, np.where(remote > SKIP_PROBABILITY, dev, -np.inf)))
    name, order, joint, marginal, cond, dev = max(sweeps, key=lambda sweep: sweep[5].max())
    (ia, ib, lam_i, _, _), local = table_argmax(order, dev)
    oi = report("outcome_independence", float(dev.max()), {
        "wing": name,
        "a_deg": angles[ia].degrees,
        "b_deg": angles[ib].degrees,
        "lambda_index": int(lam_i),
        "outcome": labels[local[3]],
        "remote_outcome": labels[local[4]],
        "conditional": float(cond[local]),
        "unconditional": float(marginal[local[:4]]),
    })
    order, joint, marginal = wings["A"]
    product = marginal[..., :, None] * remotes["A"][..., None, :]
    dev = np.abs(joint - product)
    (ia, ib, lam_i, oa, ob), local = table_argmax(order, dev)
    fact = report("factorizability", float(dev.max()), {
        "a_deg": angles[ia].degrees,
        "b_deg": angles[ib].degrees,
        "lambda_index": int(lam_i),
        "outcome_a": labels[oa],
        "outcome_b": labels[ob],
        "joint": float(joint[local]),
        "product_of_marginals": float(product[local]),
    })
    return [r.to_json_dict() for r in (pi, oi, fact, ns)]


def _reports(model, grid):
    checks = (check_parameter_independence, check_outcome_independence,
              check_factorizability, check_no_signalling)
    return [check(model, grid).to_json_dict() for check in checks]


@st.composite
def lattice_models(draw):
    """A model whose cells are multiples of 1/4 on a random grid, so that
    deviations tie: either factorizable (P(V) in {0, 1/2, 1} per wing and
    lambda) or an arbitrary joint per (a, b, lambda), which fails the
    conditions at many equal maxima."""
    grid = draw(st.lists(st.sampled_from([0.0, 22.5, 45.0, 90.0, 135.0]), min_size=1, max_size=4))
    rows = {as_angle(g).degrees: i for i, g in enumerate(grid)}
    n, n_lambda = len(grid), draw(st.integers(1, 4))
    weights = np.full(n_lambda, 1.0 / n_lambda)
    if draw(st.booleans()):
        values = st.sampled_from([0.0, 0.5, 1.0])
        tables = [np.array(draw(st.lists(values, min_size=n * n_lambda, max_size=n * n_lambda)))
                  .reshape(n, n_lambda) for _ in "AB"]

        def lookup(table):
            return lambda degrees: table[[rows[d] for d in degrees.tolist()]]

        return LhvModel(weights, (lookup(tables[0]), lookup(tables[1]))), grid
    size = n * n * n_lambda
    cuts = draw(st.lists(st.integers(0, 4), min_size=3 * size, max_size=3 * size))
    cuts = np.sort(np.array(cuts).reshape(size, 3), axis=1)  # each row splits 4 quarters four ways
    edges = np.concatenate([np.zeros((size, 1)), cuts, np.full((size, 1), 4)], axis=1)
    cells = (np.diff(edges, axis=1) / 4.0).reshape(n, n, n_lambda, 2, 2)

    def kernel(a_deg, b_deg):
        ia = [rows[d] for d in a_deg.tolist()]
        ib = [rows[d] for d in b_deg.tolist()]
        return cells[np.ix_(ia, ib)]

    return ProbabilityModel(weights, kernel), grid


def _rounding_tie_model():
    """Wing A's P(V) moves by 0.2 with the remote setting in both lambdas,
    and rounding makes the spread one ulp larger at (lambda 0, H) and at
    (lambda 1, V) than elsewhere: the PI witness is the first of the two
    in [own setting, lambda, outcome] order."""
    p_v = np.array([[0.1, 0.3], [0.7, 0.9]])  # [lambda, remote setting below / from 90 degrees]

    def kernel(a_deg, b_deg):
        p = p_v[:, (b_deg >= 90.0).astype(int)].T  # [b, lambda]
        cells = np.zeros((a_deg.size, b_deg.size, 2, 2, 2))
        cells[:, :, :, 0, 0] = p
        cells[:, :, :, 1, 0] = 1.0 - p
        return cells

    return ProbabilityModel(np.array([0.5, 0.5]), kernel)


class TestLambdaInnermostLayout:
    """Tables are stored, and swept, with lambda innermost; every report,
    witnesses included, is the one the table-order formulas give."""

    def test_lhv_table_is_stored_lambda_innermost(self, vector_lhv):
        table = vector_lhv.table(GRID)
        assert table.shape == (8, 8, 2048, 2, 2)
        assert table.strides[2] == table.itemsize
        assert np.array_equal(table, vector_lhv.cells(GRID, GRID))

    def test_pi_witness_searches_lambda_before_outcome(self):
        witness = check_parameter_independence(_rounding_tie_model(), GRID).witness
        assert (witness["lambda_index"], witness["outcome"]) == (0, "H")

    @given(st.one_of(factorizable_models(), lattice_models()))
    @settings(max_examples=200, deadline=None)
    def test_random_models(self, case):
        model, grid = case
        assert _reports(model, grid) == _reference_reports(model, grid)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(0.0, 45.0), (45.0, 0.0, 45.0), (45.0,)]))
    @settings(max_examples=30, deadline=None)
    def test_strategy_mixtures(self, seed, grid):
        weights = np.random.default_rng(seed).dirichlet(np.full(16, 0.3))
        model = strategy_model(0.0, 45.0, 0.0, 45.0, weights=weights)
        assert _reports(model, grid) == _reference_reports(model, grid)

    @given(density_matrices(), st.lists(st.floats(0.0, 360.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_random_density_matrices(self, matrix, grid):
        model = quantum_model(PhotonPairState(matrix))
        assert _reports(model, grid) == _reference_reports(model, grid)

    @pytest.mark.parametrize("model", [
        signalling_fixture_model(), signalling_fixture_model(0.1),
        _mirrored(signalling_fixture_model()), _mirrored(signalling_fixture_model(0.1), 0.5),
        _opposite_signalling_model(), _tied_model(), _rounding_tie_model(), builtin_vector_model(),
    ], ids=["signalling-fixture0", "signalling-fixture1", "mirrored0", "mirrored1",
            "opposite", "tied", "rounding-tie", "vector-lhv"])
    @pytest.mark.parametrize("grid", [GRID, (0.0, 45.0, 0.0, 90.0, 45.0), (100.0, 10.0)])
    def test_fixtures(self, model, grid):
        assert _reports(model, grid) == _reference_reports(model, grid)


_SWEEP_GRIDS = ((0.0, 45.0), (45.0, 0.0, 45.0), (0.0, 45.0, 0.0, 90.0, 45.0))

#: (model factory, grids): a strategy mixture is defined on its quadruple's angles only.
_SWEEP_MODELS = [
    pytest.param(quantum_model, _SWEEP_GRIDS, id="quantum"),
    pytest.param(lambda: quantum_model(product_polarized(30.0, 120.0)), _SWEEP_GRIDS, id="product"),
    pytest.param(builtin_vector_model, _SWEEP_GRIDS, id="vector-lhv"),
    pytest.param(signalling_fixture_model, _SWEEP_GRIDS, id="fixture"),
    pytest.param(lambda: _mirrored(signalling_fixture_model(0.1), 0.5), _SWEEP_GRIDS, id="mirrored"),
    pytest.param(_tied_model, _SWEEP_GRIDS, id="tied"),
    pytest.param(lambda: strategy_model(0.0, 45.0, 0.0, 45.0,
                                        weights=np.random.default_rng(5).dirichlet(np.ones(16))),
                 _SWEEP_GRIDS[:2], id="strategies"),
]


class TestKeptSweep:
    """A model keeps the condition sweep of its last grid next to the
    table, in one slot ``(key, table, wings)``: the four reports do not
    depend on which checker runs first or how often, another grid
    replaces the whole slot, and a condition that holds never searches
    for a witness."""

    @pytest.mark.parametrize("factory, grids", _SWEEP_MODELS)
    def test_reports_do_not_depend_on_call_order_or_repetition(self, factory, grids):
        for grid in grids:
            expected = _reports(factory(), grid)
            for order in itertools.permutations(range(4)):
                model = factory()
                for _ in range(2):
                    for k in order:
                        assert _CHECKS[k](model, grid).to_json_dict() == expected[k]

    @pytest.mark.parametrize("factory, grids", _SWEEP_MODELS)
    def test_alternating_grids_give_each_grids_reports(self, factory, grids):
        model = factory()
        first, second = grids[-1], grids[0]
        for grid in (first, second, first):
            assert _reports(model, grid) == _reference_reports(factory(), grid)
            key, table, wings = model._last_table
            assert key == tuple(as_angle(g).degrees for g in grid)
            assert model.table(grid) is table
            assert table.shape[:2] == (len(grid), len(grid))
            for wing in wings:
                assert np.shares_memory(wing.joint, table)
                assert wing.marginal.shape[:2] == (len(grid), len(grid))
                assert not wing.marginal.flags.writeable

    def test_another_grid_replaces_the_whole_slot(self):
        model = quantum_model()
        check_parameter_independence(model, GRID)
        first = model._last_table
        table = model.table(GRID[:3])  # a run's table: the old grid's sweep goes with its table
        assert model._last_table[1:] == (table, None) and table is not first[1]
        check_factorizability(model, GRID[:3])
        _, kept, swept = model._last_table
        assert kept is table and swept[0].marginal.shape[:2] == (3, 3)
        assert model.table(list(GRID[:3])) is table  # the same grid keeps both
        check_outcome_independence(model, GRID[:3])
        assert model._last_table[2] is swept

    def test_a_sweep_is_of_the_table_it_was_given(self, monkeypatch):
        """Another grid that takes the slot between a checker's ``table``
        call and its read of the slot (a model shared across threads)
        does not lend the checker its sweep."""
        model, other, fresh = (_mirrored(signalling_fixture_model(0.1), 0.5) for _ in range(3))
        check_parameter_independence(other, (100.0, 10.0))  # its slot holds a sweep
        real = ProbabilityModel.table

        def table_then_another_grid(self, grid):
            table = real(self, grid)
            object.__setattr__(self, "_last_table", other._last_table)
            return table

        monkeypatch.setattr(ProbabilityModel, "table", table_then_another_grid)
        reports = _reports(model, GRID)
        monkeypatch.undo()
        assert reports == _reference_reports(fresh, GRID)

    @pytest.mark.parametrize("model", [
        MODELS["lhv"],
        strategy_model(0.0, 45.0, 0.0, 45.0, weights=np.random.default_rng(3).dirichlet(np.ones(16))),
    ], ids=["vector-lhv", "strategies"])
    def test_holding_conditions_never_search_for_a_witness(self, model, monkeypatch):
        def no_search(self, values):
            raise AssertionError("witness search on a condition that holds")

        monkeypatch.setattr(locality._Wing, "argmax", no_search)
        for check in _CHECKS:
            report = check(model, (0.0, 45.0))
            assert report.holds and report.witness is None
        # the patch is live: a failing condition still searches
        with pytest.raises(AssertionError, match="witness search"):
            check_outcome_independence(quantum_model(), (0.0, 45.0))
