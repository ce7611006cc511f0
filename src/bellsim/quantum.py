"""Exact two-photon polarization probabilities.

Everything downstream (chances, locality checkers, the Monte Carlo
harness) reduces to the trace-rule joint distributions computed here, so
the conventions are fixed once in this module:

* Single-photon basis order is ``{|H>, |V>}``; the pair basis is
  ``{|HH>, |HV>, |VH>, |VV>}`` with wing A as the left tensor factor
  (pair index = 2 * index_A + index_B).
* Analyzer angles are degrees from the vertical reference direction.
  A polarization axis is a line, so angles are normalized modulo 180.
* Outcome ``V`` means "registered parallel to the analyzer axis" and
  encodes to +1; ``H`` is the orthogonal outcome and encodes to -1.
* States are density operators throughout, so mixed states such as
  ``identity / 2`` are first class; pure states are rank-1 operators.

This module is the only place that turns a state and analyzer angles
into probabilities. The joint is one formula, ``_born_pairs``, the pair
einsum over ``_projectors``' stacked (V, H) projector pairs, shared by
``born_joint``, ``born_conditional`` and the quantum model's kernel. A
marginal is float arithmetic on the reduced state's real entries, bit
for bit the einsum it replaced. Every probability passes one
check-and-clamp: entries in [-ATOL, 1 + ATOL] clamped to [0, 1], joint
cells summing to 1 within ATOL; ``_validated`` runs it on arrays, and
``_probability`` and ``JointDistribution`` on the floats of one scalar
result, with the same errors. A pair state is checked together with
both of its reduced states, so every Born probability of an accepted
state passes that check.

The module deliberately restricts to two-outcome polarization
measurements; general observables with arbitrary outcome sets (and the
projection-valued-measure machinery they would need) are out of scope.

All functions are pure and all value types are immutable, so values can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

#: Absolute tolerance for analytic identities (hermiticity, normalization,
#: the eigenvalue floor of a density operator) and for probabilities.
ATOL = 1e-12

#: Probabilities at or below this threshold count as impossible outcomes.
ZERO_PROBABILITY = 1e-14

#: Absolute rounding bound of one Born joint cell or marginal (derived in
#: ``_conditional``).
_BORN_ROUNDING = 16 * float(np.finfo(float).eps)


class UndefinedConditionalError(ValueError):
    """Raised when conditioning on an outcome of zero probability."""


class Wing(Enum):
    """Measurement side: wing A is the left tensor factor, B the right."""

    A = "A"
    B = "B"

    # Members are singletons and compare by identity, so the identity hash
    # agrees with ``==``; it is a C slot, where ``Enum.__hash__`` is Python.
    __hash__ = object.__hash__

    def other(self) -> "Wing":
        return Wing.B if self is Wing.A else Wing.A


class OutcomeLabel(Enum):
    """Detection outcome. V encodes to +1, H to -1."""

    V = "V"
    H = "H"

    __hash__ = object.__hash__  # identity, as for ``Wing``

    @property
    def sign(self) -> int:
        return 1 if self is OutcomeLabel.V else -1


@dataclass(frozen=True)
class AnalyzerAngle:
    """Analyzer axis orientation in degrees, normalized to [0, 180)."""

    degrees: float

    def __post_init__(self) -> None:
        value = float(self.degrees)
        if not math.isfinite(value):
            raise ValueError(f"analyzer angle must be finite, got {value!r}")
        normalized = value % 180.0
        if normalized == 180.0:  # tiny negatives round up to the full period
            normalized = 0.0
        object.__setattr__(self, "degrees", normalized)

    @property
    def radians(self) -> float:
        return math.radians(self.degrees)

    def rotated(self, delta_degrees: float) -> "AnalyzerAngle":
        return AnalyzerAngle(self.degrees + delta_degrees)

    def separation(self, other: "AngleLike") -> float:
        """Axis-to-axis separation in degrees, folded into [0, 90]."""
        diff = abs(self.degrees - as_angle(other).degrees) % 180.0
        return min(diff, 180.0 - diff)


AngleLike = AnalyzerAngle | float | int


def as_angle(value: AngleLike) -> AnalyzerAngle:
    if isinstance(value, AnalyzerAngle):
        return value
    return AnalyzerAngle(float(value))


def _frozen_matrix(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=complex)
    out.setflags(write=False)
    return out


def _check_density(matrix: np.ndarray, dim: int, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{what}: expected a {dim}x{dim} matrix, got shape {m.shape}")
    finite = np.isfinite(m)
    if not finite.all():
        # NaN passes the comparisons below, and eigvalsh reads one triangle
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{what}: non-finite entry {complex(m[i, j])} at ({i}, {j})")
    asym = float(np.abs(m - m.conj().T).max())
    if asym > ATOL:
        raise ValueError(f"{what}: not Hermitian (max asymmetry {asym:.3e})")
    trace = complex(m.trace())
    if abs(trace - 1.0) > ATOL:
        raise ValueError(f"{what}: trace {trace.real:.15g} differs from 1")
    lowest = float(np.linalg.eigvalsh(m).min())
    if lowest < -ATOL:
        raise ValueError(f"{what}: negative eigenvalue {lowest:.3e}")
    return m


@dataclass(frozen=True)
class PhotonPairState:
    """4x4 density operator for the two-photon polarization system."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        checked = _check_density(self.matrix, 4, "photon pair state")
        object.__setattr__(self, "matrix", _frozen_matrix(checked))
        # A marginal is bounded below by its reduced state's lowest
        # eigenvalue, not the pair's, so both reduced states are built and
        # checked here, once.
        try:
            reduced = {wing: SingleWingState(_partial_trace(checked, keep=wing)) for wing in Wing}
        except ValueError as exc:
            raise ValueError(f"photon pair state: reduced {exc}") from None
        object.__setattr__(self, "_reduced", reduced)

    def __eq__(self, other: object) -> bool:
        """Equal density matrices, entry for entry (``np.array_equal``)."""
        if not isinstance(other, PhotonPairState):
            return NotImplemented
        return self is other or np.array_equal(self.matrix, other.matrix)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "PhotonPairState":
        """Rank-1 state |v><v| from a (not necessarily normalized) ket."""
        v = np.asarray(vector, dtype=complex).reshape(4)
        norm = float(np.linalg.norm(v))
        if norm <= 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class SingleWingState:
    """2x2 density operator for one photon."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        checked = _check_density(self.matrix, 2, "single wing state")
        object.__setattr__(self, "matrix", _frozen_matrix(checked))
        # (rho_00, rho_01, rho_10, rho_11).real as floats, for born_marginal
        object.__setattr__(self, "_real", tuple(self.matrix.real.reshape(4).tolist()))


class ProbabilityPair(NamedTuple):
    """Probabilities of (V, H) for one wing."""

    v: float
    h: float

    def for_label(self, label: OutcomeLabel) -> float:
        return self.v if label is OutcomeLabel.V else self.h


def _range_error(value: float, what: str) -> ValueError:
    return ValueError(f"{what} entry: probability {value!r} outside [0, 1]")


def _sum_error(total: float) -> ValueError:
    return ValueError(f"joint distribution sums to {total!r}, not 1")


def _clamp_probabilities(values: np.ndarray, what: str) -> None:
    """Check that every entry of the float array ``values`` lies in
    [-ATOL, 1 + ATOL], then clamp it to [0, 1] in place."""
    low, high = values.min(initial=0.0), values.max(initial=1.0)
    if not (low >= -ATOL and high <= 1.0 + ATOL):  # also false for NaN
        raise _range_error(float(values[~((values >= -ATOL) & (values <= 1.0 + ATOL))][0]), what)
    if low < 0.0 or high > 1.0:
        np.copyto(values, 0.0, where=values < 0.0)
        np.copyto(values, 1.0, where=values > 1.0)


def _probability(value: float, what: str) -> float:
    """:func:`_clamp_probabilities` for one float: ``value`` checked to lie in
    [-ATOL, 1 + ATOL] and clamped to [0, 1] (-0.0 stays -0.0, as there)."""
    if not -ATOL <= value <= 1.0 + ATOL:  # also true for NaN
        raise _range_error(value, what)
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def _validated(raw: np.ndarray, shape: tuple) -> np.ndarray:
    """A float copy of joint probabilities ``raw`` (last two axes: outcome
    A, outcome B) in its memory order, checked to have ``shape``, entries clamped by
    :func:`_clamp_probabilities` and each 2x2 cell summing to 1."""
    cells = np.array(raw, dtype=float)
    if cells.shape != shape:
        raise ValueError(f"kernel returned shape {cells.shape}, expected {shape}")
    _clamp_probabilities(cells, "joint")
    totals = cells[..., 0, 0] + cells[..., 0, 1] + cells[..., 1, 0] + cells[..., 1, 1]
    off = np.abs(totals - 1.0)
    if off.max(initial=0.0) > ATOL:
        raise _sum_error(float(totals.flat[off.argmax()]))
    return cells


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome probabilities indexed by (wing A label, wing B label)."""

    vv: float
    vh: float
    hv: float
    hh: float

    def __post_init__(self) -> None:
        # _validated on four floats: each clamped by _probability, then
        # summed in the same order
        raw = float(self.vv), float(self.vh), float(self.hv), float(self.hh)
        cells = [_probability(p, "joint") for p in raw]
        total = cells[0] + cells[1] + cells[2] + cells[3]
        if abs(total - 1.0) > ATOL:
            raise _sum_error(total)
        for name, value in zip(("vv", "vh", "hv", "hh"), cells):
            object.__setattr__(self, name, value)

    def prob(self, a: OutcomeLabel, b: OutcomeLabel) -> float:
        key = ("v" if a is OutcomeLabel.V else "h") + ("v" if b is OutcomeLabel.V else "h")
        return float(getattr(self, key))

    def marginal(self, wing: Wing) -> ProbabilityPair:
        if wing is Wing.A:
            return ProbabilityPair(v=self.vv + self.vh, h=self.hv + self.hh)
        return ProbabilityPair(v=self.vv + self.hv, h=self.vh + self.hh)

    def correlation(self) -> float:
        """Expectation of the +/-1 outcome product."""
        return (self.vv + self.hh) - (self.vh + self.hv)

    def as_array(self) -> np.ndarray:
        """2x2 array indexed [a, b] with V=0, H=1."""
        return np.array([[self.vv, self.vh], [self.hv, self.hh]])


_IDENTITY2 = np.eye(2, dtype=complex)


def bell_phi_plus() -> PhotonPairState:
    """Maximally entangled pair (|HH> + |VV>) / sqrt(2) as a density operator.

    Built from exact rational entries so the four corner values are 0.5
    to the last bit.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    return PhotonPairState(m)


def axis_ket(angle: AngleLike) -> np.ndarray:
    """Unit ket along the analyzer axis, components ordered (H, V).

    At 0 degrees this is |V>; the angle grows toward |H>.
    """
    rad = as_angle(angle).radians
    return np.array([math.sin(rad), math.cos(rad)], dtype=complex)


def _projectors(angles: Iterable[AngleLike]) -> np.ndarray:
    """Stacked (V, H) projector pairs, shape [n, 2, 2, 2], indexed [angle,
    outcome] with V=0, H=1.

    V projects onto ``axis_ket``, H onto the orthogonal axis, so each
    pair sums to the identity. Rank-1 outer products satisfy the
    projector laws by construction, so no validation runs here.
    """
    trig = [(math.sin(rad), math.cos(rad)) for rad in (as_angle(x).radians for x in angles)]
    return np.array(
        [e for s, c in trig for e in (s * s, s * c, c * s, c * c, c * c, -c * s, -s * c, s * s)],
        dtype=complex,
    ).reshape(-1, 2, 2, 2)


def _outcome_index(outcome: OutcomeLabel) -> int:
    return 0 if outcome is OutcomeLabel.V else 1


def product_polarized(angle_a: AngleLike, angle_b: AngleLike) -> PhotonPairState:
    """Product state with each photon polarized along the given axis."""
    ka = axis_ket(angle_a)
    kb = axis_ket(angle_b)
    return PhotonPairState.from_vector(np.kron(ka, kb))


def _as_pair_state(state: PhotonPairState | np.ndarray) -> PhotonPairState:
    if isinstance(state, PhotonPairState):
        return state
    return PhotonPairState(state)


def _born_pairs(rho: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Unvalidated Tr(rho P_A x P_B) for the 4x4 matrix ``rho`` and every
    pair of stacked projector pairs ``pa[x]``, ``pb[y]``: shape [x, y, 2, 2],
    indexed [angle_a, angle_b, outcome_a, outcome_b]."""
    return np.einsum("ikjl,xmji,ynlk->xymn", rho.reshape(2, 2, 2, 2), pa, pb).real


def born_joint(
    state: PhotonPairState | np.ndarray, a: AngleLike, b: AngleLike
) -> JointDistribution:
    """Joint outcome distribution Tr(rho P_A x P_B) for analyzers at a, b."""
    return _joint(_as_pair_state(state), a, b)


def _joint(state: PhotonPairState, a: AngleLike, b: AngleLike) -> JointDistribution:
    """``born_joint`` for the Born functions and ``chance`` to call
    without passing through the public name."""
    raw = _born_pairs(state.matrix, _projectors([a]), _projectors([b]))
    return JointDistribution(*raw.reshape(4).tolist())


def _partial_trace(matrix: np.ndarray, keep: Wing) -> np.ndarray:
    reshaped = matrix.reshape(2, 2, 2, 2)
    if keep is Wing.A:
        return np.einsum("ikjk->ij", reshaped)
    return np.einsum("kikj->ij", reshaped)


#: The default pair state, ``bell_phi_plus()`` built and checked once at
#: import. It is immutable, so every model and scenario that takes the
#: default shares it; ``bell_phi_plus()`` still returns a new object.
PHI_PLUS = bell_phi_plus()


def reduced_state(state: PhotonPairState | np.ndarray, wing: Wing) -> SingleWingState:
    """Partial trace over the other wing, computed once per pair state."""
    return _as_pair_state(state)._reduced[wing]


def born_marginal(
    state: PhotonPairState | np.ndarray, wing: Wing, angle: AngleLike
) -> ProbabilityPair:
    """Single-wing outcome probabilities for an analyzer at ``angle``.

    Computed from the reduced state of ``wing`` alone, so the result
    never references the remote analyzer angle.
    """
    # Bit for bit the einsum "ij,mji->m" of the reduced matrix and
    # _projectors' pair: terms Re rho_ij * P[m, j, i], summed as (t00 + t01)
    # + (t10 + t11), with _projectors' products (IEEE products commute and
    # negate exactly). The einsum's +0.0 start matters only for a sum of
    # -0.0 terms, and with trace 1 a diagonal entry's term is never -0.0.
    r00, r01, r10, r11 = reduced_state(state, wing)._real
    rad = as_angle(angle).radians
    s, c = math.sin(rad), math.cos(rad)
    ss, sc, cc = s * s, s * c, c * c
    v = (r00 * ss + r01 * sc) + (r10 * sc + r11 * cc)
    h = (r00 * cc + r01 * -sc) + (r10 * -sc + r11 * ss)
    return ProbabilityPair(_probability(v, "marginal"), _probability(h, "marginal"))


def born_conditional(
    state: PhotonPairState | np.ndarray,
    a: AngleLike,
    b: AngleLike,
    given: tuple[Wing, OutcomeLabel],
) -> ProbabilityPair:
    """Outcome probabilities for one wing conditional on the other's outcome.

    Defined as the ratio of the joint probability to the conditioning
    wing's marginal. Conditioning on an outcome of zero probability
    raises :class:`UndefinedConditionalError`.

    Each returned probability is accurate to about 2 * ``_BORN_ROUNDING``
    / marginal, the joint's and the marginal's rounding over the
    conditioning marginal (derived in ``_conditional``). That bound is
    coarser than ``ATOL`` below a marginal of about 7e-3; the measured
    error, about 1.7e-16 / marginal, is coarser than ``ATOL`` below a
    marginal of about 1e-4.
    """
    cond_wing, cond_label = given
    rho = _as_pair_state(state)
    joint = _joint(rho, a, b)
    cond_angle = a if cond_wing is Wing.A else b
    denom = born_marginal(rho, cond_wing, cond_angle).for_label(cond_label)
    return _conditional(joint, denom, given)


def _conditional(
    joint: JointDistribution, denom: float, given: tuple[Wing, OutcomeLabel]
) -> ProbabilityPair:
    """The ratio-and-clamp step of :func:`born_conditional`: the row (or
    column) of ``joint`` that ``given`` selects, over the conditioning
    marginal ``denom``."""
    cond_wing, cond_label = given
    if denom <= ZERO_PROBABILITY:
        raise UndefinedConditionalError(
            f"conditioning outcome {cond_label.value} on wing {cond_wing.value} "
            f"has probability {denom!r}"
        )
    index = _outcome_index(cond_label)
    cells = (joint.vv, joint.vh, joint.hv, joint.hh)
    selected = cells[2 * index:2 * index + 2] if cond_wing is Wing.A else cells[index::2]
    ratios = [p / denom for p in selected]
    # The exact ratios lie in [0, 1]; rounding r_joint in the numerator and
    # r_marginal in the denominator moves them by at most (r_joint +
    # r_marginal) / denom. The joint einsum sums at most 16 products of a
    # rho entry and two projector entries, and for a positive semidefinite
    # rho their magnitudes total at most 1 (|rho_IJ| <= sqrt(rho_II rho_JJ),
    # then Cauchy-Schwarz against the projectors' unit product vector). The
    # sum costs 15u, two complex products ~6u and the rounded projector
    # entries ~6u (u = eps / 2), so r <= 27u < _BORN_ROUNDING; the marginal's
    # 4 products round less. Measured joint rows and marginals differ by at
    # most 1.7e-16. Only a slack above ATOL reaches past what _probability
    # accepts.
    slack = 2.0 * _BORN_ROUNDING / denom
    if slack > ATOL and all(-slack <= r <= 1.0 + slack for r in ratios):  # false for NaN
        ratios = [0.0 if r < 0.0 else 1.0 if r > 1.0 else r for r in ratios]
    return ProbabilityPair(*(_probability(r, "conditional") for r in ratios))


def conditional_remote_state(
    state: PhotonPairState | np.ndarray,
    wing: Wing,
    angle: AngleLike,
    outcome: OutcomeLabel,
) -> SingleWingState:
    """State of the unobserved wing after conditioning on an observed outcome.

    Projects the observed wing onto the outcome, traces it out and
    renormalizes. ``wing`` names the observed side.
    """
    rho = _as_pair_state(state)
    proj = _projectors([angle])[0, _outcome_index(outcome)]
    if wing is Wing.A:
        lift = np.kron(proj, _IDENTITY2)
    else:
        lift = np.kron(_IDENTITY2, proj)
    weight = float(np.einsum("ij,ji->", rho.matrix, lift).real)
    if weight <= ZERO_PROBABILITY:
        raise UndefinedConditionalError(
            f"observed outcome {outcome.value} on wing {wing.value} has "
            f"probability {weight!r}"
        )
    collapsed = lift @ rho.matrix @ lift / weight
    return SingleWingState(_partial_trace(collapsed, keep=wing.other()))
