import math

import numpy as np
import pytest

from bellsim.hidden_variables import (
    CHSH_MINIMUM,
    DeterministicStrategy,
    LhvModel,
    all_strategies,
    builtin_vector_model,
    deterministic_chsh_maximum,
    strategy_chsh,
    strategy_model,
)
from bellsim.locality import (
    check_factorizability,
    check_outcome_independence,
    check_parameter_independence,
    chsh,
    default_angle_grid,
)
from bellsim.quantum import OutcomeLabel, Wing

V, H = OutcomeLabel.V, OutcomeLabel.H


def response_sign(lam_deg: float, setting_deg: float) -> int:
    """The doubled-axis rule, written independently of the model code."""
    return 1 if math.cos(4.0 * math.radians(lam_deg - setting_deg)) >= 0.0 else -1


def correlation_by_integration(a_deg: float, b_deg: float, n: int = 360_000) -> float:
    """Brute-force midpoint integration of the response product over the
    hidden axis; the oracle for the built-in vector model."""
    total = 0
    step = 180.0 / n
    for i in range(n):
        lam = (i + 0.5) * step
        total += response_sign(lam, a_deg) * response_sign(lam, b_deg)
    return total / n


class TestDeterministicStrategies:
    def test_sixteen_strategies(self):
        strategies = all_strategies()
        assert len(strategies) == 16
        assert len(set(strategies)) == 16

    def test_response_lookup(self):
        s = DeterministicStrategy(a0=V, a1=H, b0=H, b1=V)
        assert s.response(Wing.A, 0) is V
        assert s.response(Wing.A, 1) is H
        assert s.response(Wing.B, 0) is H
        with pytest.raises(ValueError):
            s.response(Wing.A, 2)

    def test_json_dict_maps_each_field_to_its_label(self):
        s = DeterministicStrategy(a0=V, a1=H, b0=H, b1=V)
        assert s.to_json_dict() == {"a0": "V", "a1": "H", "b0": "H", "b1": "V"}

    def test_maximum_is_exactly_two(self):
        value, witness = deterministic_chsh_maximum(0.0, 45.0, 22.5, -22.5)
        assert value == 2.0
        assert strategy_chsh(witness) == 2.0

    def test_maximum_is_angle_independent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            angles = rng.uniform(0.0, 180.0, size=4)
            value, _ = deterministic_chsh_maximum(*angles)
            assert value == 2.0

    def test_minimum_is_exactly_minus_two(self):
        assert min(strategy_chsh(s) for s in all_strategies()) == -2.0
        assert CHSH_MINIMUM == -2.0

    def test_values_are_even_integers(self):
        assert sorted(set(strategy_chsh(s) for s in all_strategies())) == [-2.0, 2.0]

    def test_uniform_mixture_vanishes(self):
        model = strategy_model(0.0, 45.0, 22.5, -22.5)
        assert chsh(model, 0.0, 45.0, 22.5, -22.5) == pytest.approx(0.0, abs=1e-12)

    def test_maximum_witness_is_first_in_enumeration(self):
        value, witness = deterministic_chsh_maximum(1.0, 2.0, 3.0, 4.0)
        first = next(s for s in all_strategies() if strategy_chsh(s) == value)
        assert witness == first

    def test_strategy_model_is_a_lookup(self):
        chosen = all_strategies()[5]
        model = strategy_model(0.0, 45.0, 22.5, -22.5, strategies=[chosen], weights=[1.0])
        cells = model.cells([0.0, 45.0], [22.5, 157.5])
        for k in (0, 1):
            for m in (0, 1):
                oa = 0 if chosen.response(Wing.A, k) is V else 1
                ob = 0 if chosen.response(Wing.B, m) is V else 1
                assert cells[k, m, 0, oa, ob] == 1.0
                assert cells[k, m, 0].sum() == 1.0

    def test_strategy_model_rejects_other_angles(self):
        model = strategy_model(0.0, 45.0, 22.5, -22.5)
        with pytest.raises(ValueError, match="quadruple"):
            model.table([0.0, 10.0])
        with pytest.raises(ValueError, match="quadruple"):
            model.correlation(10.0, 22.5)

    @pytest.mark.parametrize(
        "quadruple, wing, angle",
        [((0.0, 0.0, 22.5, 45.0), "A", "0.0"), ((0.0, 45.0, 22.5, 202.5), "B", "22.5")],
    )
    def test_strategy_model_rejects_repeated_angle(self, quadruple, wing, angle):
        # a repeated angle used to map silently to setting index 1
        with pytest.raises(ValueError, match=f"wing {wing} repeats the angle {angle}"):
            strategy_model(*quadruple)


class TestResponseRange:
    @pytest.mark.parametrize("p_v", [1.5, -0.25])
    def test_correlation_and_table_reject_out_of_range_response(self, p_v):
        def bad(degrees):
            return np.full((degrees.size, 1), p_v)

        def fair(degrees):
            return np.full((degrees.size, 1), 0.5)

        for response_a, response_b in ((bad, fair), (fair, bad)):
            model = LhvModel(np.ones(1), (response_a, response_b))
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                model.correlation(0.0, 0.0)
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                model.table([0.0])

    def test_correlation_clamps_within_atol(self):
        def nearly_one(degrees):
            return np.full((degrees.size, 1), 1.0 + 1e-13)

        model = LhvModel(np.ones(1), (nearly_one, nearly_one))
        assert model.correlation(0.0, 0.0) == 1.0
        assert model.table([0.0])[0, 0, 0, 0, 0] == 1.0


@pytest.fixture(scope="module")
def model():
    return builtin_vector_model()


class TestVectorModel:

    def test_perfect_correlation_aligned(self, model):
        for a in (0.0, 10.0, 91.0):
            assert model.correlation(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_at_45(self, model):
        # every hidden axis flips its response when the setting rotates 45
        assert model.correlation(10.0, 55.0) == pytest.approx(-1.0, abs=1e-12)
        assert correlation_by_integration(10.0, 55.0) == pytest.approx(-1.0, abs=1e-9)

    def test_zero_at_optimal_offsets(self, model):
        # each scheduled pair sits 22.5 (or 67.5) degrees apart
        for a, b in ((0.0, 22.5), (0.0, -22.5), (45.0, 22.5), (45.0, -22.5)):
            assert model.correlation(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_matches_integration(self, model):
        for a, b in ((0.0, 10.0), (5.0, 41.0), (30.0, 107.0)):
            oracle = correlation_by_integration(a, b, n=180_000)
            assert model.correlation(a, b) == pytest.approx(oracle, abs=5e-3)

    def test_chsh_vanishes_at_quantum_optimal_angles(self, model):
        assert chsh(model, 0.0, 45.0, 22.5, -22.5) == pytest.approx(0.0, abs=1e-6)

    def test_chsh_never_beats_classical_bound(self, model):
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            a, ap, b, bp = rng.uniform(0.0, 180.0, size=4)
            assert abs(chsh(model, a, ap, b, bp)) <= 2.0 + 1e-9

    def test_passes_locality_checkers_per_lambda(self, model):
        grid = default_angle_grid(8)
        assert check_parameter_independence(model, grid).holds
        assert check_outcome_independence(model, grid).holds
        assert check_factorizability(model, grid).holds

    def test_quantum_gap_at_optimal_angles(self, model):
        from bellsim.locality import quantum_model

        gap = chsh(quantum_model(), 0.0, 45.0, 22.5, -22.5) - deterministic_chsh_maximum(
            0.0, 45.0, 22.5, -22.5
        )[0]
        assert gap == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-9)
