import math

import numpy as np
import pytest

from bellsim.hidden_variables import builtin_vector_model
from bellsim.locality import (
    ProbabilityModel,
    check_factorizability,
    check_outcome_independence,
    check_parameter_independence,
    chsh,
    default_angle_grid,
    no_signalling_deviation,
    quantum_model,
    signalling_fixture_model,
)
from bellsim.quantum import (
    Wing,
    bell_phi_plus,
    born_joint,
    product_polarized,
)

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
