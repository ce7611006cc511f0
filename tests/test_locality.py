import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.hidden_variables import LhvModel, builtin_vector_model, strategy_model
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


class TestModelValidation:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError, match="sum"):
            ProbabilityModel(
                name="bad",
                lambdas=(0, 1),
                weights=np.array([0.7, 0.7]),
                kernel=lambda a, b, lam: born_joint(bell_phi_plus(), a, b),
            )

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="negative"):
            ProbabilityModel(
                name="bad",
                lambdas=(0, 1),
                weights=np.array([1.5, -0.5]),
                kernel=lambda a, b, lam: born_joint(bell_phi_plus(), a, b),
            )

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
    @pytest.mark.parametrize("model", [
        quantum_model(), builtin_vector_model(), signalling_fixture_model(),
        signalling_fixture_model(0.1), quantum_model(product_polarized(10.0, 80.0)),
    ], ids=lambda model: model.name)
    @pytest.mark.parametrize("grid", [GRID, (0.0, 45.0, 22.5, -22.5), (100.0,)])
    def test_equals_asdict(self, model, grid):
        reports = [check(model, grid) for check in _CHECKS]
        for report in reports:
            _assert_json_dict_is_asdict(report)
        if model.name == "signalling-fixture" and len(grid) > 1:
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

    model = LhvModel.from_responses(
        "random-lhv", range(len(weights)), weights, lookup(tables[0]), lookup(tables[1])
    )
    return model, grid


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

    return ProbabilityModel(name="opposite", lambdas=(0, 1), weights=np.array([0.5, 0.5]),
                            kernel=kernel)


class TestNoSignalling:
    """No-signalling is parameter independence of the lambda-averaged
    marginals: implied by PI, equal to it for one lambda, and weaker."""

    @staticmethod
    def assert_bounded_by_pi(model, grid):
        pi = check_parameter_independence(model, grid)
        ns = check_no_signalling(model, grid)
        assert ns.max_deviation <= pi.max_deviation + CONDITION_TOL
        if len(model.lambdas) == 1:
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

    return ProbabilityModel(name="mirrored", lambdas=model.lambdas, weights=model.weights, kernel=kernel)


def _tied_model():
    """Wing B fails OI more than wing A, by the same amount at every a != b,
    so its witness depends on the order in which tied cells are searched."""

    def kernel(a_deg, b_deg):
        same = (a_deg[:, None] == b_deg[None, :])[:, :, None, None, None]
        return np.where(same, 0.25, np.array([[0.0, 0.25], [0.5, 0.25]]))

    return ProbabilityModel(name="tied", lambdas=(None,), weights=np.array([1.0]), kernel=kernel)


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

        return LhvModel.from_responses("lattice-lhv", range(n_lambda), weights,
                                       lookup(tables[0]), lookup(tables[1])), grid
    size = n * n * n_lambda
    cuts = draw(st.lists(st.integers(0, 4), min_size=3 * size, max_size=3 * size))
    cuts = np.sort(np.array(cuts).reshape(size, 3), axis=1)  # each row splits 4 quarters four ways
    edges = np.concatenate([np.zeros((size, 1)), cuts, np.full((size, 1), 4)], axis=1)
    cells = (np.diff(edges, axis=1) / 4.0).reshape(n, n, n_lambda, 2, 2)

    def kernel(a_deg, b_deg):
        ia = [rows[d] for d in a_deg.tolist()]
        ib = [rows[d] for d in b_deg.tolist()]
        return cells[np.ix_(ia, ib)]

    return ProbabilityModel("lattice", tuple(range(n_lambda)), weights, kernel), grid


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

    return ProbabilityModel(name="rounding-tie", lambdas=(0, 1), weights=np.array([0.5, 0.5]),
                            kernel=kernel)


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
    ], ids=lambda model: model.name)
    @pytest.mark.parametrize("grid", [GRID, (0.0, 45.0, 0.0, 90.0, 45.0), (100.0, 10.0)])
    def test_fixtures(self, model, grid):
        assert _reports(model, grid) == _reference_reports(model, grid)
