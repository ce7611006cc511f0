"""Local hidden-variable constructions.

Two families live here. Deterministic strategies assign a fixed outcome
to each of the two settings on each wing; enumerating all sixteen of
them is an executable proof that their CHSH combination never leaves
[-2, 2]. The built-in vector model draws a hidden polarization axis
uniformly over [0, 180) and responds deterministically per wing, which
makes every locality condition hold per lambda by construction.

Both models (a strategy mixture and the vector model) are an
``LhvModel(weights, responses)``: a prior and per-wing responses, array
functions mapping analyzer angles ``degrees[n]`` to the probability of
V for every lambda, ``[n, n_lambda]``. The model builds its kernel as
the outer product of the two responses, Fine's picture of a local model
(PRL 48, 291, 1982), and is nothing else: its correlations and CHSH
values reduce that kernel's validated cells, as every model's do. A
strategy mixture's response is a table lookup.
The product is formed lambda innermost and returned as a transposed
view in the unchanged kernel layout ``[na, nb, n_lambda, 2, 2]``, so
stored tables keep lambda innermost for the condition sweeps.

The vector model's response rule works in doubled-angle space: the
hidden axis and the analyzer axis are doubled, treated as axes again,
and the wing answers V when they lie within 45 degrees of each other.
Equivalently the response is sign(cos(4 * (lambda - setting))). The
resulting correlation is a triangle wave of period 90 degrees in the
setting difference: +1 aligned, 0 at 22.5 degrees, -1 at 45 degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .locality import Kernel, ProbabilityModel, _angle_degrees
from .quantum import AngleLike, OutcomeLabel, Wing, as_angle

#: Default quadrature resolution for continuous-lambda models.
DEFAULT_LAMBDA_NODES = 2048


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed responses for the two settings of each wing.

    ``a0, a1`` are wing A's outcomes for its first and second setting;
    ``b0, b1`` the same for wing B.
    """

    a0: OutcomeLabel
    a1: OutcomeLabel
    b0: OutcomeLabel
    b1: OutcomeLabel

    def response(self, wing: Wing, setting_index: int) -> OutcomeLabel:
        if setting_index not in (0, 1):
            raise ValueError(f"setting index must be 0 or 1, got {setting_index!r}")
        if wing is Wing.A:
            return self.a0 if setting_index == 0 else self.a1
        return self.b0 if setting_index == 0 else self.b1

    def to_json_dict(self) -> dict:
        """Each field's outcome label, ``"V"`` or ``"H"``."""
        return {name: label.value for name, label in vars(self).items()}


def all_strategies() -> tuple[DeterministicStrategy, ...]:
    """All sixteen deterministic strategies for the 2x2 setting problem."""
    labels = (OutcomeLabel.V, OutcomeLabel.H)
    return tuple(
        DeterministicStrategy(a0, a1, b0, b1)
        for a0, a1, b0, b1 in itertools.product(labels, repeat=4)
    )


def strategy_chsh(strategy: DeterministicStrategy) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') under a fixed strategy."""
    a0, a1 = strategy.a0.sign, strategy.a1.sign
    b0, b1 = strategy.b0.sign, strategy.b1.sign
    return float(a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1)


#: The largest CHSH value over all sixteen strategies and the first
#: strategy that reaches it, and the smallest value, enumerated once.
_CHSH_MAXIMUM = max(((strategy_chsh(s), s) for s in all_strategies()), key=lambda item: item[0])
CHSH_MINIMUM = min(strategy_chsh(s) for s in all_strategies())


def deterministic_chsh_maximum(
    a: AngleLike, a_prime: AngleLike, b: AngleLike, b_prime: AngleLike
) -> tuple[float, DeterministicStrategy]:
    """Exact maximum of the CHSH expression over all sixteen strategies.

    The angle arguments label the setting indices and must be finite; the
    bound itself does not depend on their values, so it is enumerated
    once at import.
    """
    _angle_degrees((a, a_prime, b, b_prime))
    return _CHSH_MAXIMUM


#: Per-wing response: analyzer angles ``degrees[n]`` to the probability
#: of V for every lambda, ``[n, n_lambda]``.
Response = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class LhvModel(ProbabilityModel):
    """A probability model whose kernel factorizes per lambda.

    ``responses`` holds the (wing A, wing B) response functions, the
    model's only definition besides its prior: the kernel is built as
    their outer product, and every reader, correlations included, reduces
    that kernel's validated cells, as for any ``ProbabilityModel``.
    """

    kernel: Kernel = field(init=False, repr=False)
    responses: tuple[Response, Response]

    def __post_init__(self) -> None:
        response_a, response_b = self.responses

        def kernel(a_deg: np.ndarray, b_deg: np.ndarray) -> np.ndarray:
            pa = self._rows(response_a, a_deg)
            pb = self._rows(response_b, b_deg)
            wing_a = np.stack([pa, 1.0 - pa], axis=1)  # [a, outcome_a, lambda]
            wing_b = np.stack([pb, 1.0 - pb], axis=1)  # [b, outcome_b, lambda]
            joint = wing_a[:, None, :, None, :] * wing_b[None, :, None, :, :]
            return joint.transpose(0, 1, 4, 2, 3)  # lambda stays innermost in memory

        object.__setattr__(self, "kernel", kernel)
        super().__post_init__()

    def _rows(self, response: Response, degrees: np.ndarray) -> np.ndarray:
        """``response``'s P(V) rows for ``degrees`` as a float copy, one row
        per angle and one column per lambda, or a ``ValueError``; construction
        cannot check this, as a strategy response knows only its quadruple."""
        rows = np.array(response(degrees), dtype=float)
        if rows.shape != (degrees.size, self.weights.size):
            raise ValueError(f"response rows have shape {rows.shape}, not one row per angle "
                             f"({degrees.size}) and one column per lambda ({self.weights.size})")
        return rows

    # Inherited, and bound here too: ``perfbench/tracer.py`` reads
    # ``LhvModel.__dict__["correlation"]``, so the name goes only with the benchmark.
    correlation = ProbabilityModel.correlation


def builtin_vector_model() -> LhvModel:
    """Uniform hidden-axis model with the doubled-angle sign response.

    The lambda prior is a midpoint quadrature over [0, 180) with
    ``DEFAULT_LAMBDA_NODES`` cells, so the response discontinuities fall
    on cell boundaries and grid sums at multiples of 180 /
    ``DEFAULT_LAMBDA_NODES`` degrees are exact.

    Each call builds a new model, and with it the model's lambda guide;
    ``harness.MODELS["lhv"]`` is the one the ``lhv`` runs of a process share.
    """
    nodes = DEFAULT_LAMBDA_NODES
    lambda_array = (np.arange(nodes) + 0.5) * (180.0 / nodes)
    weights = np.full(nodes, 1.0 / nodes)

    def response(degrees: np.ndarray) -> np.ndarray:
        agrees = np.cos(4.0 * np.radians(lambda_array[None, :] - degrees[:, None])) >= 0.0
        return agrees.astype(float)

    return LhvModel(weights, (response, response))


def strategy_model(
    a: AngleLike,
    a_prime: AngleLike,
    b: AngleLike,
    b_prime: AngleLike,
    strategies: Sequence[DeterministicStrategy] | None = None,
    weights: np.ndarray | None = None,
) -> LhvModel:
    """Mixture of deterministic strategies bound to a concrete quadruple.

    Each wing's response looks its analyzer angles up in the quadruple
    to find their setting indices, so the model is only defined on those
    four angles. Defaults to the uniform mixture over all sixteen
    strategies.
    """
    chosen = tuple(strategies) if strategies is not None else all_strategies()
    if not chosen:
        raise ValueError("a strategy mixture needs at least one strategy")
    prior = (
        np.asarray(weights, dtype=float)
        if weights is not None
        else np.full(len(chosen), 1.0 / len(chosen))
    )
    if prior.size != len(chosen):
        raise ValueError(f"{len(chosen)} strategies need as many weights, got {prior.size}")
    index_of = {}
    for wing, pair in ((Wing.A, (a, a_prime)), (Wing.B, (b, b_prime))):
        first, second = (as_angle(angle).degrees for angle in pair)
        if first == second:
            raise ValueError(
                f"wing {wing.value} repeats the angle {first} in the strategy quadruple; "
                "its two settings need distinct angles"
            )
        index_of[wing] = {first: 0, second: 1}

    def respond(wing: Wing) -> Response:
        settings = index_of[wing]
        # P(V) per (setting index, strategy)
        p_v = np.array(
            [[float(s.response(wing, k) is OutcomeLabel.V) for s in chosen] for k in (0, 1)]
        )

        def response(degrees: np.ndarray) -> np.ndarray:
            rows = []
            for degree in degrees.tolist():
                if degree not in settings:
                    raise ValueError(f"angle {degree} is not one of the strategy quadruple")
                rows.append(settings[degree])
            return p_v[rows]

        return response

    return LhvModel(prior, (respond(Wing.A), respond(Wing.B)))
