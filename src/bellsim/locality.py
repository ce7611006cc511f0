"""Locality condition checkers over abstract bipartite probability models.

A model is its prior over a hidden variable lambda, one weight per
value, and a kernel that assigns, for every pair of analyzer angles and
every lambda, a joint outcome distribution; the quantum model is the
degenerate case with a single lambda. Its kernel maps normalized
angles ``a_degrees[na]`` and ``b_degrees[nb]`` to the table ``[na, nb,
n_lambda, 2, 2]``, indexed [a, b, lambda, outcome_a, outcome_b] with
V=0, H=1. Grid tables, single cells, the sampler's per-pair cells and
correlations come from that one call and one validation step,
``quantum._validated``, whose bounds and errors every scalar Born
result's check shares, except ``LhvModel.correlation``, which reduces
the response rows its kernel is built from (see ``hidden_variables``);
the quantum kernel is ``quantum._born_pairs``: one cell on Python
floats, as ``born_joint`` sums it, and a larger grid by broadcasting, in
the same order. A model keeps the table of the last grid it was asked
for, and that grid's condition sweep once a
checker has built it, in one slot, ``(key, table, wings)``, each time
written in one assignment; another grid replaces all three. Kernels
must be pure for that cache to be sound. A model with more than one
lambda also carries the sampler's guide to its prior, built once from
the read-only weights when the model is built. The contract fixes the
table's shape, not its memory layout: the validated copy keeps the
kernel's, and an LHV table is stored lambda innermost.

The sweep is both wings' views of the table and per-lambda marginals,
built once per grid, by the first checker call, in one layout, [own
setting, remote setting, own outcome, remote outcome, lambda], so that
every formula is written once for both wings and numpy's inner loops
run over lambda. Each of the four checkers reads it and returns one
record type, a ``ConditionReport``: the worst-case deviation from its
condition, taken from one ``max``, which holds within
``CONDITION_TOL``. Only when it fails does the checker search for a
witness, the first worst cell in the table's [a, b, lambda, outcome_a,
outcome_b] order.

* parameter independence: a wing's per-lambda marginal must not depend
  on the remote setting;
* no-signalling: the same test on the lambda-averaged marginals, through
  the same remote-setting spread step; it is implied by parameter
  independence but does not imply it;
* outcome independence: a wing's per-lambda probability must not depend
  on the remote outcome;
* factorizability: the per-lambda joint must equal the product of the
  per-lambda marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quantum import (
    PHI_PLUS,
    AngleLike,
    AnalyzerAngle,
    JointDistribution,
    OutcomeLabel,
    PhotonPairState,
    _as_pair_state,
    _born_pairs,
    _normalized_degrees,
    _validated,
)

#: Default tolerance for a condition to count as holding.
CONDITION_TOL = 1e-12

#: Conditioning outcomes with probability at or below this are skipped.
SKIP_PROBABILITY = 1e-12

_LABELS = (OutcomeLabel.V.value, OutcomeLabel.H.value)

#: ``kernel(a_degrees[na], b_degrees[nb]) -> probabilities[na, nb, n_lambda, 2, 2]``.
Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _angle_degrees(angles: Sequence[AngleLike]) -> tuple[float, ...]:
    """The normalized angles in degrees: a kernel's input, and for a grid
    the table's key and its axis labels."""
    return tuple(
        x.degrees if isinstance(x, AnalyzerAngle) else _normalized_degrees(x) for x in angles
    )


#: A uniform is ``k * 2**-53`` for the 53-bit integer ``k = raw >> 11``.
_UNIFORM_BITS = 53
_NEVER = np.uint64(2**64 - 1)


def _thresholds(cumulative: np.ndarray) -> np.ndarray:
    """``uint64`` thresholds T with ``k >= T`` exactly when ``k * 2**-53 >=
    cumulative`` for every 53-bit k. Scaling by 2**53 is exact; a value
    that rounds above 1 gives 2**53, which no k reaches. ``cumulative`` is
    a float array the caller hands over: it is scaled, rounded and clipped
    in place, to the bits ``np.clip`` gives on a scaled copy at several
    times the cost, so the thresholds are the only new array."""
    np.ldexp(cumulative, _UNIFORM_BITS, out=cumulative)
    np.ceil(cumulative, out=cumulative)
    np.maximum(cumulative, 0.0, out=cumulative)
    np.minimum(cumulative, float(2**_UNIFORM_BITS), out=cumulative)
    return cumulative.astype(np.uint64)


class _LambdaGuide(NamedTuple):
    """Guide table over the top bits of k, ``k >> shift``, for a cumulative
    prior's thresholds. ``start[b]`` is the first lambda that a k in bucket
    b can map to; ``steps`` are the binary-search strides that cover the
    widest bucket; ``prior`` is padded with unreachable thresholds past
    them."""

    shift: np.uint64
    start: np.ndarray
    steps: tuple[int, ...]
    prior: np.ndarray


def _lambda_guide(weights: np.ndarray) -> _LambdaGuide:
    """The read-only guide for sampling a lambda from the prior ``weights``."""
    prior = _thresholds(np.cumsum(weights))
    prior[-1] = _NEVER  # the index is clipped to the last node
    bits = len(prior).bit_length()  # at least two buckets per node
    shift = np.uint64(_UNIFORM_BITS - bits)
    edges = np.arange(2**bits + 1, dtype=np.uint64) << shift
    start = np.searchsorted(prior, edges[:-1], side="right")
    end = np.searchsorted(prior, edges[1:] - np.uint64(1), side="right")
    widest = int((end - start).max())
    steps = tuple(1 << j for j in reversed(range(widest.bit_length())))
    padding = np.full(max(steps, default=0), _NEVER)
    prior = np.concatenate([prior, padding])
    start.setflags(write=False)
    prior.setflags(write=False)
    return _LambdaGuide(shift, start, steps, prior)


@dataclass(frozen=True, eq=False)
class ProbabilityModel:
    """Bipartite model: a prior, one weight per lambda, and a ``Kernel``."""

    weights: np.ndarray
    kernel: Kernel

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if weights.size == 0:
            raise ValueError("a model needs at least one lambda value")
        bad = np.flatnonzero(~np.isfinite(weights))  # NaN passes both tests below
        if bad.size:
            raise ValueError(f"non-finite prior weight {weights[bad[0]]} at index {bad[0]}")
        if weights.min() < 0.0:
            raise ValueError(f"negative prior weight {weights.min()!r}")
        total = float(weights.sum())
        if abs(total - 1.0) > CONDITION_TOL:
            raise ValueError(f"prior weights sum to {total!r}, not 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        # (normalized grid, table, wings) of the last ``table`` call; the
        # wings, the grid's condition sweep, are None until a checker sweeps it.
        object.__setattr__(self, "_last_table", None)
        # The sampler's guide to the prior, built once from the read-only
        # weights; None for a single lambda, which needs no draw.
        object.__setattr__(self, "_guide", _lambda_guide(weights) if weights.size > 1 else None)

    def cells(self, a: Sequence[AngleLike], b: Sequence[AngleLike]) -> np.ndarray:
        """Validated joint probabilities, shape (len(a), len(b), n_lambda, 2, 2)."""
        a_deg, b_deg = (np.array(_angle_degrees(angles), dtype=float) for angles in (a, b))
        shape = (a_deg.size, b_deg.size, self.weights.size, 2, 2)
        return _validated(self.kernel(a_deg, b_deg), shape)

    def joint(self, a: AngleLike, b: AngleLike, index: int) -> JointDistribution:
        vv, vh, hv, hh = self.cells([a], [b])[0, 0, index].reshape(4)
        return JointDistribution(vv=float(vv), vh=float(vh), hv=float(hv), hh=float(hh))

    def table(self, grid: Sequence[AngleLike]) -> np.ndarray:
        """Joint probabilities for every grid cell.

        Shape (len(grid), len(grid), n_lambda, 2, 2), indexed
        [a, b, lambda, outcome_a, outcome_b] with V=0, H=1, in the
        kernel's memory layout (lambda innermost for an LHV model). The
        last grid's table is kept, keyed by the normalized angles, and
        with it the grid's condition sweep, both wings' views and
        marginals, once a checker has built it; so a run and the checkers
        sweeping one grid build each once, and another grid replaces both.
        """
        key = _angle_degrees(grid)
        last = self._last_table
        if last is None or last[0] != key:
            table = self.cells(grid, grid)
            table.setflags(write=False)
            last = (key, table, None)
            object.__setattr__(self, "_last_table", last)
        return last[1]

    def correlation(self, a: AngleLike, b: AngleLike) -> float:
        """Prior-weighted expectation of the +/-1 outcome product."""
        p = self.cells([a], [b])[0, 0]
        values = (p[:, 0, 0] + p[:, 1, 1]) - (p[:, 0, 1] + p[:, 1, 0])
        return float(np.dot(self.weights, values))


def quantum_model(state: PhotonPairState | None = None) -> ProbabilityModel:
    """The orthodox quantum model: one lambda, Born-rule kernel.

    The kernel is ``quantum._born_pairs`` over every angle at once: one
    cell is ``born_joint``'s own float sum, and a larger grid the same
    sum by broadcasting, bit for bit. Without a state it uses
    ``PHI_PLUS``.
    """
    pair = PHI_PLUS if state is None else _as_pair_state(state)

    def kernel(a_deg: np.ndarray, b_deg: np.ndarray) -> np.ndarray:
        return _born_pairs(pair, a_deg.tolist(), b_deg.tolist())[:, :, None]

    return ProbabilityModel(np.array([1.0]), kernel)


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

    return ProbabilityModel(np.array([1.0]), kernel)


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
        """The fields as a new dict, with a copy of ``witness``."""
        data = dict(vars(self))
        if self.witness is not None:
            data["witness"] = dict(self.witness)
        return data


def default_angle_grid(count: int = 8) -> tuple[AnalyzerAngle, ...]:
    """Evenly spaced analyzer axes covering [0, 180)."""
    if count < 1:
        raise ValueError("grid needs at least one angle")
    step = 180.0 / count
    return tuple(AnalyzerAngle(i * step) for i in range(count))


class _Wing(NamedTuple):
    """A wing's view of a grid table, [own setting, remote setting, own
    outcome, remote outcome, lambda]: ``table.transpose(order)``."""

    name: str
    order: tuple[int, ...]
    joint: np.ndarray
    marginal: np.ndarray  # [own, remote, own outcome, lambda]
    remote_marginal: np.ndarray  # [own, remote, remote outcome, lambda]

    def argmax(self, values: np.ndarray) -> tuple[tuple, tuple]:
        """(table index, wing-local index) of the first maximum of
        ``values`` in the table's own [a, b, lambda, oa, ob] order. The
        search runs on a transposed boolean mask of the maxima, because a
        transposed copy of ``values`` itself costs more than the sweep."""
        peaks = (values == values.max()).transpose(np.argsort(self.order))
        first = peaks.any(axis=(3, 4))  # [a, b, lambda]
        ia, ib, lam = np.unravel_index(first.argmax(), first.shape)
        cell = peaks[ia, ib, lam]
        index = (ia, ib, lam, *np.unravel_index(cell.argmax(), cell.shape))
        return index, tuple(index[k] for k in self.order)


_ORDERS = {"A": (0, 1, 3, 4, 2), "B": (1, 0, 4, 3, 2)}


def _wings(table: np.ndarray) -> tuple[_Wing, _Wing]:
    """Both wings' views of a read-only table: the condition sweep that a
    model keeps with it. Each marginal sums the two remote-outcome slices:
    ``.sum`` over that axis, bit for bit."""
    joints = [table.transpose(order) for order in _ORDERS.values()]
    marginals = [joint[:, :, :, 0] + joint[:, :, :, 1] for joint in joints]
    for marginal in marginals:
        marginal.setflags(write=False)
    remotes = [marginal.swapaxes(0, 1) for marginal in marginals[::-1]]
    return tuple(map(_Wing, _ORDERS, _ORDERS.values(), joints, marginals, remotes))


def _sweep(model: ProbabilityModel, grid: Sequence[AngleLike]) -> tuple:
    """The grid's normalized angles in degrees and both wings' views of
    the model's table, built on the first sweep of the grid and then kept
    with the table, in its slot."""
    degrees = _angle_degrees(grid)
    if not degrees:
        raise ValueError("angle grid must be nonempty")
    table = model.table(degrees)
    key, kept, wings = model._last_table
    if kept is not table:  # another caller's grid has taken the slot since
        return degrees, _wings(table)
    if wings is None:
        wings = _wings(table)
        object.__setattr__(model, "_last_table", (key, table, wings))
    return degrees, wings


def _report(condition: str, deviation: float, witness: Callable[[], dict]) -> ConditionReport:
    """The report on a worst-case ``deviation``; ``witness()`` searches
    for the worst cell only when the condition fails."""
    deviation = float(deviation)
    holds = deviation <= CONDITION_TOL
    return ConditionReport(condition, holds, deviation, CONDITION_TOL, None if holds else witness())


def _remote_spread(condition: str, degrees: tuple, marginals: dict) -> ConditionReport:
    """Worst dependence on the remote setting of either wing's marginal
    ``[own, remote, own outcome, lambda]``, keyed by wing; wing A on ties."""
    spreads = {wing: m.max(axis=1) - m.min(axis=1) for wing, m in marginals.items()}
    peaks = {wing: spread.max() for wing, spread in spreads.items()}
    wing = max(peaks, key=peaks.__getitem__)

    def witness() -> dict:
        spread = spreads[wing].swapaxes(1, 2)  # [own setting, lambda, outcome]
        local_i, lam_i, out_i = np.unravel_index(spread.argmax(), spread.shape)
        along = marginals[wing][local_i, :, out_i, lam_i]
        return {
            "wing": wing,
            "local_angle_deg": degrees[local_i],
            "remote_angle_deg": degrees[int(along.argmax())],
            "remote_angle_alt_deg": degrees[int(along.argmin())],
            "lambda_index": int(lam_i),
            "outcome": _LABELS[out_i],
            "probability_high": float(along.max()),
            "probability_low": float(along.min()),
        }

    return _report(condition, peaks[wing], witness)


def check_parameter_independence(
    model: ProbabilityModel, grid: Sequence[AngleLike]
) -> ConditionReport:
    """Worst per-lambda dependence of either wing's marginal on the
    remote setting, over all setting pairs drawn from the grid."""
    degrees, wings = _sweep(model, grid)
    return _remote_spread("parameter_independence", degrees, {w.name: w.marginal for w in wings})


def check_no_signalling(model: ProbabilityModel, grid: Sequence[AngleLike]) -> ConditionReport:
    """Parameter independence of the lambda-averaged marginals: the worst
    dependence of either wing's observable statistics on the remote
    setting. The witness's ``lambda_index`` is always 0."""
    degrees, wings = _sweep(model, grid)
    weights = model.weights[:, None]

    def averaged(m: np.ndarray) -> np.ndarray:
        """``np.tensordot(m, weights, axes=([3], [0]))[..., None]``: its own
        reshape and dot, bit for bit, without its argument handling, stored
        with the remote setting innermost, the axis ``_remote_spread``
        reduces over."""
        dot = np.dot(m.reshape(-1, len(weights)), weights).reshape(m.shape[:3])
        return np.ascontiguousarray(dot.swapaxes(1, 2)).swapaxes(1, 2)[..., None]

    return _remote_spread("no_signalling", degrees, {w.name: averaged(w.marginal) for w in wings})


def _conditional_gap(wing: _Wing, out: np.ndarray) -> np.ndarray:
    """|P(own outcome | remote outcome, lambda) - P(own outcome | lambda)|
    into ``out``, in the wing's layout; -inf where the remote outcome is
    skipped."""
    remote = wing.remote_marginal[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(wing.joint, remote, out=out)
    np.subtract(out, wing.marginal[:, :, :, None], out=out)
    np.abs(out, out=out)
    np.copyto(out, -np.inf, where=remote <= SKIP_PROBABILITY)
    return out


def check_outcome_independence(
    model: ProbabilityModel, grid: Sequence[AngleLike]
) -> ConditionReport:
    """Worst per-lambda dependence of either wing's probability on the
    remote outcome. Conditioning outcomes of zero probability are
    skipped, since deterministic branches legitimately produce them."""
    degrees, wings = _sweep(model, grid)
    gap = np.empty(wings[0].joint.shape)  # one buffer, filled for wing B, then wing A
    peaks = [_conditional_gap(wing, gap).max() for wing in wings[::-1]][::-1]
    worst = int(peaks[1] > peaks[0])  # wing A on ties

    def witness() -> dict:
        wing = wings[worst]
        if worst:
            _conditional_gap(wing, gap)  # the buffer holds wing A's gaps
        (ia, ib, lam_i, _, _), local = wing.argmax(gap)
        return {
            "wing": wing.name,
            "a_deg": degrees[ia],
            "b_deg": degrees[ib],
            "lambda_index": int(lam_i),
            "outcome": _LABELS[local[2]],
            "remote_outcome": _LABELS[local[3]],
            "conditional": float(wing.joint[local] / wing.remote_marginal[local[:2] + local[3:]]),
            "unconditional": float(wing.marginal[local[:3] + local[4:]]),
        }

    return _report("outcome_independence", peaks[worst], witness)


def check_factorizability(model: ProbabilityModel, grid: Sequence[AngleLike]) -> ConditionReport:
    """Worst per-lambda gap between the joint and the product of the
    per-lambda marginals."""
    degrees, (wing, _) = _sweep(model, grid)
    dev = wing.marginal[:, :, :, None] * wing.remote_marginal[:, :, None]  # the product
    np.subtract(wing.joint, dev, out=dev)
    np.abs(dev, out=dev)

    def witness() -> dict:
        (ia, ib, lam_i, oa, ob), local = wing.argmax(dev)
        return {
            "a_deg": degrees[ia],
            "b_deg": degrees[ib],
            "lambda_index": int(lam_i),
            "outcome_a": _LABELS[oa],
            "outcome_b": _LABELS[ob],
            "joint": float(wing.joint[local]),
            "product_of_marginals": float(
                wing.marginal[local[:3] + local[4:]] * wing.remote_marginal[local[:2] + local[3:]]
            ),
        }

    return _report("factorizability", dev.max(), witness)


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


def no_signalling_deviation(model: ProbabilityModel, grid: Sequence[AngleLike]) -> float:
    """``check_no_signalling(model, grid).max_deviation``."""
    return check_no_signalling(model, grid).max_deviation
