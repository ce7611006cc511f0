"""Locality condition checkers over abstract bipartite probability models.

A model assigns, for every pair of analyzer angles and every value of a
hidden variable lambda, a joint outcome distribution. The quantum model
is the degenerate case with a single lambda. The checkers sweep an
angle grid and report the worst-case deviation from each condition:

* parameter independence: a wing's per-lambda marginal must not depend
  on the remote setting;
* outcome independence: a wing's per-lambda probability must not depend
  on the remote outcome;
* factorizability: the per-lambda joint must equal the product of the
  per-lambda marginals.

A model's kernel is array-valued: it maps normalized angles
``a_degrees[na]`` and ``b_degrees[nb]`` to the table
``[na, nb, n_lambda, 2, 2]``, indexed [a, b, lambda, outcome_a,
outcome_b] with V=0, H=1. Grid tables, correlations, single cells and
the sampler's per-pair cells all come from that one call and one
validation step. Kernels must be pure for the table cache to be sound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quantum import (
    ATOL,
    AngleLike,
    AnalyzerAngle,
    JointDistribution,
    OutcomeLabel,
    PhotonPairState,
    _as_pair_state,
    _wing_projectors,
    as_angle,
    bell_phi_plus,
)

#: Default tolerance for a condition to count as holding.
CONDITION_TOL = 1e-12

#: Conditioning outcomes with probability at or below this are skipped.
SKIP_PROBABILITY = 1e-12

_LABELS = (OutcomeLabel.V, OutcomeLabel.H)

#: ``kernel(a_degrees[na], b_degrees[nb]) -> probabilities[na, nb, n_lambda, 2, 2]``.
Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _degrees(angles: Sequence[AngleLike]) -> np.ndarray:
    return np.array([as_angle(x).degrees for x in angles], dtype=float)


def _validated(raw: np.ndarray, shape: tuple) -> np.ndarray:
    """The checks ``JointDistribution`` makes, over a whole kernel result:
    entries in [-ATOL, 1 + ATOL] clamped to [0, 1], cells summing to 1."""
    cells = np.array(raw, dtype=float)
    if cells.shape != shape:
        raise ValueError(f"kernel returned shape {cells.shape}, expected {shape}")
    inside = (cells >= -ATOL) & (cells <= 1.0 + ATOL)
    if not inside.all():
        raise ValueError(f"joint entry: probability {cells[~inside][0]!r} outside [0, 1]")
    np.copyto(cells, 0.0, where=cells < 0.0)
    np.copyto(cells, 1.0, where=cells > 1.0)
    totals = cells[..., 0, 0] + cells[..., 0, 1] + cells[..., 1, 0] + cells[..., 1, 1]
    off = np.abs(totals - 1.0)
    if totals.size and off.max() > ATOL:
        raise ValueError(f"joint distribution sums to {totals.flat[off.argmax()]!r}, not 1")
    return cells


@dataclass(frozen=True, eq=False)
class ProbabilityModel:
    """Bipartite model: prior-weighted lambdas and an array-valued kernel."""

    name: str
    lambdas: tuple
    weights: np.ndarray
    kernel: Kernel
    _tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.lambdas) != weights.size:
            raise ValueError("lambdas and weights must have equal length")
        if weights.size == 0:
            raise ValueError("a model needs at least one lambda value")
        if weights.min() < 0.0:
            raise ValueError(f"negative prior weight {weights.min()!r}")
        total = float(weights.sum())
        if abs(total - 1.0) > CONDITION_TOL:
            raise ValueError(f"prior weights sum to {total!r}, not 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lambdas", tuple(self.lambdas))

    def cells(self, a: Sequence[AngleLike], b: Sequence[AngleLike]) -> np.ndarray:
        """Validated joint probabilities, shape (len(a), len(b), n_lambda, 2, 2)."""
        a_deg, b_deg = _degrees(a), _degrees(b)
        shape = (a_deg.size, b_deg.size, len(self.lambdas), 2, 2)
        return _validated(self.kernel(a_deg, b_deg), shape)

    def joint(self, a: AngleLike, b: AngleLike, index: int) -> JointDistribution:
        vv, vh, hv, hh = self.cells([a], [b])[0, 0, index].reshape(4)
        return JointDistribution(vv=float(vv), vh=float(vh), hv=float(hv), hh=float(hh))

    def table(self, grid: Sequence[AngleLike]) -> np.ndarray:
        """Joint probabilities for every grid cell.

        Shape (len(grid), len(grid), n_lambda, 2, 2), indexed
        [a, b, lambda, outcome_a, outcome_b] with V=0, H=1. Cached per
        grid, keyed by the normalized angles.
        """
        key = tuple(_degrees(grid).tolist())
        cached = self._tables.get(key)
        if cached is None:
            cached = self.cells(key, key)
            cached.setflags(write=False)
            self._tables[key] = cached
        return cached

    def correlation(self, a: AngleLike, b: AngleLike) -> float:
        """Prior-weighted expectation of the +/-1 outcome product."""
        p = self.cells([a], [b])[0, 0]
        values = (p[:, 0, 0] + p[:, 1, 1]) - (p[:, 0, 1] + p[:, 1, 0])
        return float(np.dot(self.weights, values))


def quantum_model(state: PhotonPairState | None = None) -> ProbabilityModel:
    """The orthodox quantum model: one lambda, Born-rule kernel.

    The kernel stacks each angle's (V, H) projectors and contracts them
    with the state in one einsum, the batched form of ``born_joint``.
    """
    rho = _as_pair_state(state if state is not None else bell_phi_plus()).matrix.reshape(2, 2, 2, 2)

    def kernel(a_deg: np.ndarray, b_deg: np.ndarray) -> np.ndarray:
        pa = np.stack([_wing_projectors(x) for x in a_deg.tolist()])
        pb = np.stack([_wing_projectors(x) for x in b_deg.tolist()])
        return np.einsum("ikjl,xmji,ynlk->xymn", rho, pa, pb).real[:, :, None]

    return ProbabilityModel(
        name="quantum",
        lambdas=(None,),
        weights=np.array([1.0]),
        kernel=kernel,
    )


def signalling_fixture_model(bias: float = 0.25) -> ProbabilityModel:
    """A deliberately signalling model for exercising the checkers.

    Wing A's marginal shifts by ``bias`` whenever the remote analyzer
    sits at or beyond 90 degrees, so the no-signalling deviation over a
    grid spanning both sides of 90 degrees equals ``bias`` exactly.
    """
    if not (0.0 < bias <= 0.25):
        raise ValueError("bias must be in (0, 0.25]")

    def kernel(a_deg: np.ndarray, b_deg: np.ndarray) -> np.ndarray:
        p_va = 0.5 + np.where(b_deg >= 90.0, bias, 0.0)
        rows = np.stack([p_va * 0.5, (1.0 - p_va) * 0.5], axis=-1)  # [b, outcome_a]
        return np.broadcast_to(rows[None, :, None, :, None], (a_deg.size, b_deg.size, 1, 2, 2))

    return ProbabilityModel(
        name="signalling-fixture",
        lambdas=(None,),
        weights=np.array([1.0]),
        kernel=kernel,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition sweep, with the worst-case witness."""

    condition: str
    holds: bool
    max_deviation: float
    tolerance: float
    witness: dict | None

    def __post_init__(self) -> None:
        if self.holds != (self.max_deviation <= self.tolerance):
            raise ValueError("holds flag disagrees with deviation vs tolerance")
        if not self.holds and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    def to_json_dict(self) -> dict:
        return asdict(self)


def default_angle_grid(count: int = 8) -> tuple[AnalyzerAngle, ...]:
    """Evenly spaced analyzer axes covering [0, 180)."""
    if count < 1:
        raise ValueError("grid needs at least one angle")
    step = 180.0 / count
    return tuple(AnalyzerAngle(i * step) for i in range(count))


def _grid_table(
    model: ProbabilityModel, grid: Sequence[AngleLike]
) -> tuple[tuple[AnalyzerAngle, ...], np.ndarray]:
    angles = tuple(as_angle(g) for g in grid)
    if not angles:
        raise ValueError("angle grid must be nonempty")
    return angles, model.table(angles)


def _label(index: int) -> str:
    return _LABELS[index].value


def _report(condition: str, deviation: float, witness: dict | None, tol: float) -> ConditionReport:
    holds = deviation <= tol
    return ConditionReport(condition, holds, deviation, tol, None if holds else witness)


def check_parameter_independence(
    model: ProbabilityModel,
    grid: Sequence[AngleLike],
    tol: float = CONDITION_TOL,
) -> ConditionReport:
    """Worst per-lambda dependence of either wing's marginal on the
    remote setting, over all setting pairs drawn from the grid."""
    angles, table = _grid_table(model, grid)
    best = (-1.0, None)
    for wing_name, marg, remote_axis in (
        ("A", table.sum(axis=4), 1),
        ("B", table.sum(axis=3), 0),
    ):
        # marg has axes [a, b, lambda, outcome]; the remote setting axis
        # is b for wing A and a for wing B.
        hi = marg.max(axis=remote_axis)
        lo = marg.min(axis=remote_axis)
        spread = hi - lo
        deviation = float(spread.max())
        if deviation > best[0]:
            local_i, lam_i, out_i = np.unravel_index(spread.argmax(), spread.shape)
            along = marg[local_i, :, lam_i, out_i] if wing_name == "A" else marg[:, local_i, lam_i, out_i]
            witness = {
                "wing": wing_name,
                "local_angle_deg": angles[local_i].degrees,
                "remote_angle_deg": angles[int(along.argmax())].degrees,
                "remote_angle_alt_deg": angles[int(along.argmin())].degrees,
                "lambda_index": int(lam_i),
                "outcome": _label(out_i),
                "probability_high": float(along.max()),
                "probability_low": float(along.min()),
            }
            best = (deviation, witness)
    return _report("parameter_independence", *best, tol)


def check_outcome_independence(
    model: ProbabilityModel,
    grid: Sequence[AngleLike],
    tol: float = CONDITION_TOL,
) -> ConditionReport:
    """Worst per-lambda dependence of either wing's probability on the
    remote outcome. Conditioning outcomes of zero probability are
    skipped, since deterministic branches legitimately produce them."""
    angles, table = _grid_table(model, grid)
    marg_a = table.sum(axis=4)  # [a, b, lam, oa]
    marg_b = table.sum(axis=3)  # [a, b, lam, ob]
    best = (-1.0, None)
    for wing_name, conditioner, unconditional in (("A", marg_b, marg_a), ("B", marg_a, marg_b)):
        with np.errstate(divide="ignore", invalid="ignore"):
            if wing_name == "A":
                cond = table / conditioner[:, :, :, None, :]  # P(A|B,lam)
                dev = np.abs(cond - unconditional[:, :, :, :, None])
                mask = conditioner[:, :, :, None, :] > SKIP_PROBABILITY
            else:
                cond = table / conditioner[:, :, :, :, None]  # P(B|A,lam)
                dev = np.abs(cond - unconditional[:, :, :, None, :])
                mask = conditioner[:, :, :, :, None] > SKIP_PROBABILITY
        dev = np.where(mask, dev, -np.inf)
        deviation = float(dev.max())
        if deviation > best[0]:
            ia, ib, lam_i, oa, ob = np.unravel_index(dev.argmax(), dev.shape)
            conditioned_on = _label(ob) if wing_name == "A" else _label(oa)
            outcome = _label(oa) if wing_name == "A" else _label(ob)
            witness = {
                "wing": wing_name,
                "a_deg": angles[ia].degrees,
                "b_deg": angles[ib].degrees,
                "lambda_index": int(lam_i),
                "outcome": outcome,
                "remote_outcome": conditioned_on,
                "conditional": float(cond[ia, ib, lam_i, oa, ob]),
                "unconditional": float(
                    unconditional[ia, ib, lam_i, oa if wing_name == "A" else ob]
                ),
            }
            best = (deviation, witness)
    return _report("outcome_independence", *best, tol)


def check_factorizability(
    model: ProbabilityModel,
    grid: Sequence[AngleLike],
    tol: float = CONDITION_TOL,
) -> ConditionReport:
    """Worst per-lambda gap between the joint and the product of the
    per-lambda marginals."""
    angles, table = _grid_table(model, grid)
    marg_a = table.sum(axis=4)
    marg_b = table.sum(axis=3)
    product = marg_a[:, :, :, :, None] * marg_b[:, :, :, None, :]
    dev = np.abs(table - product)
    deviation = float(dev.max())
    witness = None
    if deviation > tol:
        ia, ib, lam_i, oa, ob = np.unravel_index(dev.argmax(), dev.shape)
        witness = {
            "a_deg": angles[ia].degrees,
            "b_deg": angles[ib].degrees,
            "lambda_index": int(lam_i),
            "outcome_a": _label(oa),
            "outcome_b": _label(ob),
            "joint": float(table[ia, ib, lam_i, oa, ob]),
            "product_of_marginals": float(product[ia, ib, lam_i, oa, ob]),
        }
    return _report("factorizability", deviation, witness, tol)


def chsh(
    model: ProbabilityModel,
    a: AngleLike,
    a_prime: AngleLike,
    b: AngleLike,
    b_prime: AngleLike,
) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') for the model's correlations."""
    return (
        model.correlation(a, b)
        + model.correlation(a, b_prime)
        + model.correlation(a_prime, b)
        - model.correlation(a_prime, b_prime)
    )


def no_signalling_deviation(
    model: ProbabilityModel, grid: Sequence[AngleLike]
) -> float:
    """Dependence of the lambda-averaged marginals on the remote setting."""
    _, table = _grid_table(model, grid)
    weights = model.weights
    avg_a = np.tensordot(table.sum(axis=4), weights, axes=([2], [0]))  # [a, b, oa]
    avg_b = np.tensordot(table.sum(axis=3), weights, axes=([2], [0]))  # [a, b, ob]
    dev_a = (avg_a.max(axis=1) - avg_a.min(axis=1)).max()
    dev_b = (avg_b.max(axis=0) - avg_b.min(axis=0)).max()
    return float(max(dev_a, dev_b))
