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
into probabilities, in one summation order of its own: a joint cell is
a left-to-right sum from +0.0 of 16 terms, one per entry of rho in
row-major order (``_born_cell``). One cell, as in ``born_joint`` and
``born_conditional``, is that sum on Python floats; the quantum model's
kernel, at every grid size, is the same sum by broadcasting
(``_born_grid``). A marginal is float arithmetic on the reduced state's
real entries. No result depends on a library's internal summation
order. Every probability passes one check-and-clamp: entries in
[-ATOL, 1 + ATOL] clamped to [0, 1], joint cells summing to 1 within
ATOL; ``_validated`` runs it on arrays, and
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
from typing import ClassVar, Iterable, NamedTuple

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


def _normalized_degrees(value: float) -> float:
    """An analyzer axis in degrees, normalized to [0, 180): an
    ``AnalyzerAngle``'s ``degrees`` without building the angle."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"analyzer angle must be finite, got {value!r}")
    normalized = value % 180.0
    if normalized == 180.0:  # tiny negatives round up to the full period
        normalized = 0.0
    return normalized


@dataclass(frozen=True)
class AnalyzerAngle:
    """Analyzer axis orientation in degrees, normalized to [0, 180)."""

    degrees: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", _normalized_degrees(self.degrees))

    @property
    def radians(self) -> float:
        return math.radians(self.degrees)

    def rotated(self, delta_degrees: float) -> "AnalyzerAngle":
        return AnalyzerAngle(self.degrees + delta_degrees)


AngleLike = AnalyzerAngle | float | int


def as_angle(value: AngleLike) -> AnalyzerAngle:
    if isinstance(value, AnalyzerAngle):
        return value
    return AnalyzerAngle(float(value))


def _check_density(matrix: np.ndarray, dim: int, what: str) -> np.ndarray:
    """A read-only complex copy of ``matrix``, checked to be a ``dim`` x
    ``dim`` density operator; ``what`` names it in the errors."""
    m = np.array(matrix, dtype=complex)
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
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class _DensityState:
    """A checked, read-only density operator: both state records. They
    compare entry for entry (``np.array_equal``) and are unhashable."""

    matrix: np.ndarray
    _dim: ClassVar[int]
    _what: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_density(self.matrix, self._dim, self._what))
        # the real entries in row-major order, as floats, for the Born sums
        object.__setattr__(self, "_real", tuple(self.matrix.real.reshape(-1).tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self is other or np.array_equal(self.matrix, other.matrix)


class SingleWingState(_DensityState):
    """2x2 density operator for one photon."""

    _dim, _what = 2, "single wing state"


class PhotonPairState(_DensityState):
    """4x4 density operator for the two-photon polarization system."""

    _dim, _what = 4, "photon pair state"

    def __post_init__(self) -> None:
        super().__post_init__()
        # A marginal is bounded below by its reduced state's lowest
        # eigenvalue, not the pair's, so both reduced states are built and
        # checked here, once.
        try:
            reduced = {wing: SingleWingState(_partial_trace(self.matrix, wing)) for wing in Wing}
        except ValueError as exc:
            raise ValueError(f"photon pair state: reduced {exc}") from None
        object.__setattr__(self, "_reduced", reduced)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "PhotonPairState":
        """Rank-1 state |v><v| from a (not necessarily normalized) ket."""
        v = np.asarray(vector, dtype=complex).reshape(4)
        norm = float(np.linalg.norm(v))
        if norm <= 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))


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
        vv, vh, hv, hh = float(self.vv), float(self.vh), float(self.hv), float(self.hh)
        vv, vh = _probability(vv, "joint"), _probability(vh, "joint")
        hv, hh = _probability(hv, "joint"), _probability(hh, "joint")
        total = vv + vh + hv + hh
        if abs(total - 1.0) > ATOL:
            raise _sum_error(total)
        vars(self).update(vv=vv, vh=vh, hv=hv, hh=hh)

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


def _axis_products(angle: AngleLike) -> tuple[float, float, float]:
    """(s * s, s * c, c * c) for the sine s and cosine c of the analyzer
    axis: the V projector is [[ss, sc], [sc, cc]] and the H projector
    [[cc, -sc], [-sc, ss]] (IEEE products commute and negate exactly)."""
    degrees = angle.degrees if isinstance(angle, AnalyzerAngle) else _normalized_degrees(angle)
    rad = math.radians(degrees)
    s, c = math.sin(rad), math.cos(rad)
    return s * s, s * c, c * c


def _projectors(angles: Iterable[AngleLike]) -> np.ndarray:
    """Stacked real (V, H) projector pairs, shape [n, 2, 2, 2], indexed
    [angle, outcome] with V=0, H=1.

    V projects onto ``axis_ket``, H onto the orthogonal axis, so each
    pair sums to the identity. Rank-1 outer products satisfy the
    projector laws by construction, so no validation runs here.
    """
    return np.array(
        [e for ss, sc, cc in map(_axis_products, angles) for e in (ss, sc, sc, cc, cc, -sc, -sc, ss)]
    ).reshape(-1, 2, 2, 2)


def product_polarized(angle_a: AngleLike, angle_b: AngleLike) -> PhotonPairState:
    """Product state with each photon polarized along the given axis."""
    ka = axis_ket(angle_a)
    kb = axis_ket(angle_b)
    return PhotonPairState.from_vector(np.kron(ka, kb))


def _as_pair_state(state: PhotonPairState | np.ndarray) -> PhotonPairState:
    if isinstance(state, PhotonPairState):
        return state
    return PhotonPairState(state)


def _cell(r: tuple, a0: float, a1: float, a2: float, b0: float, b1: float, b2: float) -> float:
    """One joint cell for P_A = [[a0, a1], [a1, a2]] and P_B = [[b0, b1],
    [b1, b2]]: +0.0 plus the 16 terms (Re rho_IJ * P_A[j, i]) * P_B[l, k]
    of ``r``, rho's real entries, in row-major order (I = 2i + k, J = 2j +
    l), added left to right."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15 = r
    return (0.0 + r0 * a0 * b0 + r1 * a0 * b1 + r2 * a1 * b0 + r3 * a1 * b1
            + r4 * a0 * b1 + r5 * a0 * b2 + r6 * a1 * b1 + r7 * a1 * b2
            + r8 * a1 * b0 + r9 * a1 * b1 + r10 * a2 * b0 + r11 * a2 * b1
            + r12 * a1 * b1 + r13 * a1 * b2 + r14 * a2 * b1 + r15 * a2 * b2)


def _born_cell(state: PhotonPairState, a: AngleLike, b: AngleLike) -> tuple[float, ...]:
    """Unvalidated Tr(rho P_A x P_B) for analyzers at a, b, as the floats
    (vv, vh, hv, hh): each cell is ``_cell`` on ``_axis_products``'
    projector entries. The imaginary parts of rho drop out, since the
    projectors are real."""
    ss, sc, cc = _axis_products(a)
    a_v, a_h = (ss, sc, cc), (cc, -sc, ss)
    ss, sc, cc = _axis_products(b)
    b_v, b_h = (ss, sc, cc), (cc, -sc, ss)
    r = state._real
    return _cell(r, *a_v, *b_v), _cell(r, *a_v, *b_h), _cell(r, *a_h, *b_v), _cell(r, *a_h, *b_h)


#: Terms that ``_born_grid`` multiplies and adds at a time (512 KB), so its
#: scratch memory stays bounded whatever the grid size.
_GRID_BLOCK_TERMS = 1 << 16

#: For rho's entries in row-major order (I = 2i + k, J = 2j + l), the
#: flat index of the projector entries P_A[m, j, i] and P_B[n, l, k].
_A_ENTRY = tuple(2 * j + i for i in (0, 1) for k in (0, 1) for j in (0, 1) for l in (0, 1))
_B_ENTRY = tuple(2 * l + k for i in (0, 1) for k in (0, 1) for j in (0, 1) for l in (0, 1))


def _born_grid(rho: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """``_cell`` by broadcasting, for the 4x4 matrix ``rho`` and every pair
    of stacked projector pairs ``pa[x]``, ``pb[y]``: each cell is a sum from
    +0.0 of 16 terms, one per entry rho_IJ in row-major order, (Re rho_IJ *
    P_A[m, j, i]) * P_B[n, l, k] with I = 2i + k and J = 2j + l; reducing the
    outer axis of the terms adds them in order. Rows of (angle_a,
    outcome_a) are done in blocks of about ``_GRID_BLOCK_TERMS`` terms. The
    result is a view laid out [x, m, y, n]."""
    nx, ny = len(pa), len(pb)
    ra = rho.real.reshape(16, 1) * pa.reshape(-1, 4).T.take(_A_ENTRY, axis=0)  # [I J, (x m)]
    rb = pb.reshape(-1, 4).T.take(_B_ENTRY, axis=0)  # [I J, (y n)]
    cells = np.empty((2 * nx, 2 * ny))
    rows = max(1, _GRID_BLOCK_TERMS // (32 * max(ny, 1)))  # 16 terms x 2 cells per (x m) and y
    for lo in range(0, 2 * nx, rows):
        terms = ra[:, lo : lo + rows, None] * rb[:, None]
        np.add.reduce(terms, axis=0, initial=0.0, out=cells[lo : lo + rows])
    return cells.reshape(nx, 2, ny, 2).transpose(0, 2, 1, 3)


def born_joint(
    state: PhotonPairState | np.ndarray, a: AngleLike, b: AngleLike
) -> JointDistribution:
    """Joint outcome distribution Tr(rho P_A x P_B) for analyzers at a, b."""
    return _joint(_as_pair_state(state), a, b)


def _joint(state: PhotonPairState, a: AngleLike, b: AngleLike) -> JointDistribution:
    """``born_joint`` for the Born functions and ``chance`` to call
    without passing through the public name."""
    return JointDistribution(*_born_cell(state, a, b))


def _partial_trace(matrix: np.ndarray, keep: Wing) -> np.ndarray:
    """The reduced matrix of wing ``keep``: each entry is +0.0 plus its two
    terms, the traced-out index 0 first (the +0.0 turns a -0.0 sum into
    0.0)."""
    m = matrix.reshape(2, 2, 2, 2)
    if keep is Wing.A:
        return 0.0 + m[:, 0, :, 0] + m[:, 1, :, 1]
    return 0.0 + m[0, :, 0, :] + m[1, :, 1, :]


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
    # Terms Re rho_ij * P[m, j, i] of the reduced matrix and _projectors'
    # pair, summed as (t00 + t01) + (t10 + t11). No +0.0 start is needed: it
    # matters only for a sum of -0.0 terms, and with trace 1 a diagonal
    # entry's term is never -0.0.
    r00, r01, r10, r11 = reduced_state(state, wing)._real
    ss, sc, cc = _axis_products(angle)
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
    v, row = cond_label is OutcomeLabel.V, cond_wing is Wing.A  # A picks a row of joint, B a column
    first = (joint.vv if v else joint.hv if row else joint.vh) / denom
    second = ((joint.vh if row else joint.hv) if v else joint.hh) / denom
    # The exact ratios lie in [0, 1]; rounding r_joint in the numerator and
    # r_marginal in the denominator moves them by at most (r_joint +
    # r_marginal) / denom. A joint cell sums 16 products of a real rho
    # entry and two projector entries, and for a positive semidefinite rho
    # their magnitudes total at most 1 (|rho_IJ| <= sqrt(rho_II rho_JJ),
    # then Cauchy-Schwarz against the projectors' unit product vector). The
    # sum costs 15u, the two float products 2u and the rounded projector
    # entries ~6u (u = eps / 2), so r <= 23u < _BORN_ROUNDING; the marginal's
    # 4 products round less. Measured joint rows and marginals differ by at
    # most 1.7e-16. Only a slack above ATOL reaches past what _probability
    # accepts.
    slack = 2.0 * _BORN_ROUNDING / denom
    if slack > ATOL and -slack <= first <= 1.0 + slack and -slack <= second <= 1.0 + slack:  # false for NaN
        first, second = min(max(first, 0.0), 1.0), min(max(second, 0.0), 1.0)
    return ProbabilityPair(_probability(first, "conditional"), _probability(second, "conditional"))

