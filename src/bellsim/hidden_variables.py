"""Local hidden-variable constructions.

Two families live here. Deterministic strategies assign a fixed outcome
to each of the two settings on each wing; enumerating all sixteen of
them is an executable proof that their CHSH combination never leaves
[-2, 2]. The built-in vector model draws a hidden polarization axis
uniformly over [0, 180) and responds deterministically per wing, which
makes every locality condition hold per lambda by construction.

Both models (a strategy mixture and the vector model) are built from
per-wing responses: array functions mapping analyzer angles
``degrees[n]`` to the probability of V for every lambda,
``[n, n_lambda]``. The kernel is the outer product of the two wings'
responses, Fine's picture of a local model (PRL 48, 291, 1982); a
strategy mixture's response is a table lookup.

The vector model's response rule works in doubled-angle space: the
hidden axis and the analyzer axis are doubled, treated as axes again,
and the wing answers V when they lie within 45 degrees of each other.
Equivalently the response is sign(cos(4 * (lambda - setting))). The
resulting correlation is a triangle wave of period 90 degrees in the
setting difference: +1 aligned, 0 at 22.5 degrees, -1 at 45 degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .locality import ProbabilityModel
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
#: strategy that reaches it, enumerated once.
_CHSH_MAXIMUM = max(((strategy_chsh(s), s) for s in all_strategies()), key=lambda item: item[0])


def deterministic_chsh_maximum(
    a: AngleLike, a_prime: AngleLike, b: AngleLike, b_prime: AngleLike
) -> tuple[float, DeterministicStrategy]:
    """Exact maximum of the CHSH expression over all sixteen strategies.

    The angle arguments label the setting indices; the bound itself does
    not depend on their values, so it is enumerated once at import.
    """
    del a, a_prime, b, b_prime
    return _CHSH_MAXIMUM


#: Per-wing response: analyzer angles ``degrees[n]`` to the probability
#: of V for every lambda, ``[n, n_lambda]``.
Response = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class LhvModel(ProbabilityModel):
    """A probability model whose kernel factorizes per lambda.

    ``responses`` holds the (wing A, wing B) response functions; the
    kernel is their outer product, and correlations reduce the two
    response rows directly.
    """

    responses: tuple[Response, Response] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.responses is None:
            raise ValueError("an LhvModel needs its two wing responses; see from_responses")

    def correlation(self, a: AngleLike, b: AngleLike) -> float:
        response_a, response_b = self.responses
        signs_a = 2.0 * response_a(np.array([as_angle(a).degrees]))[0] - 1.0
        signs_b = 2.0 * response_b(np.array([as_angle(b).degrees]))[0] - 1.0
        return float(np.dot(self.weights, signs_a * signs_b))

    @classmethod
    def from_responses(
        cls,
        name: str,
        lambdas: Sequence,
        weights: np.ndarray,
        response_a: Response,
        response_b: Response,
    ) -> "LhvModel":
        """Build a model from per-wing response probabilities.

        The kernel is the outer product of the two wings' (V, H)
        probabilities, so factorizability per lambda is exact by
        construction.
        """

        def kernel(a_deg: np.ndarray, b_deg: np.ndarray) -> np.ndarray:
            pa = np.asarray(response_a(a_deg), dtype=float)
            pb = np.asarray(response_b(b_deg), dtype=float)
            wing_a = np.stack([pa, 1.0 - pa], axis=-1)  # [a, lambda, outcome_a]
            wing_b = np.stack([pb, 1.0 - pb], axis=-1)  # [b, lambda, outcome_b]
            return wing_a[:, None, :, :, None] * wing_b[None, :, :, None, :]

        return cls(
            name=name,
            lambdas=tuple(lambdas),
            weights=weights,
            kernel=kernel,
            responses=(response_a, response_b),
        )


def builtin_vector_model(nodes: int = DEFAULT_LAMBDA_NODES) -> LhvModel:
    """Uniform hidden-axis model with the doubled-angle sign response.

    The lambda prior is a midpoint quadrature over [0, 180) with
    ``nodes`` cells, so the response discontinuities fall on cell
    boundaries and grid sums at multiples of 180/nodes degrees are
    exact.
    """
    if nodes < 1:
        raise ValueError("quadrature needs at least one node")
    step = 180.0 / nodes
    lambdas = tuple((i + 0.5) * step for i in range(nodes))
    weights = np.full(nodes, 1.0 / nodes)
    lambda_array = np.asarray(lambdas)

    def response(degrees: np.ndarray) -> np.ndarray:
        agrees = np.cos(4.0 * np.radians(lambda_array[None, :] - degrees[:, None])) >= 0.0
        return agrees.astype(float)

    return LhvModel.from_responses(
        name="vector-lhv",
        lambdas=lambdas,
        weights=weights,
        response_a=response,
        response_b=response,
    )


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
    prior = (
        np.asarray(weights, dtype=float)
        if weights is not None
        else np.full(len(chosen), 1.0 / len(chosen))
    )
    index_of = {
        Wing.A: {as_angle(a).degrees: 0, as_angle(a_prime).degrees: 1},
        Wing.B: {as_angle(b).degrees: 0, as_angle(b_prime).degrees: 1},
    }

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

    return LhvModel.from_responses(
        name="strategy-mixture",
        lambdas=chosen,
        weights=prior,
        response_a=respond(Wing.A),
        response_b=respond(Wing.B),
    )
