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
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Absolute tolerance for analytic identities (hermiticity, normalization).
ATOL = 1e-12

#: Eigenvalue floor below which a density operator is rejected.
PSD_ATOL = 1e-10

#: Probabilities at or below this threshold count as impossible outcomes.
ZERO_PROBABILITY = 1e-14


class UndefinedConditionalError(ValueError):
    """Raised when conditioning on an outcome of zero probability."""


class Wing(Enum):
    """Measurement side: wing A is the left tensor factor, B the right."""

    A = "A"
    B = "B"

    def other(self) -> "Wing":
        return Wing.B if self is Wing.A else Wing.A


class OutcomeLabel(Enum):
    """Detection outcome. V encodes to +1, H to -1."""

    V = "V"
    H = "H"

    @property
    def sign(self) -> int:
        return 1 if self is OutcomeLabel.V else -1

    @classmethod
    def from_sign(cls, sign: int) -> "OutcomeLabel":
        if sign == 1:
            return cls.V
        if sign == -1:
            return cls.H
        raise ValueError(f"outcome sign must be +1 or -1, got {sign!r}")


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
    asym = float(np.abs(m - m.conj().T).max())
    if asym > ATOL:
        raise ValueError(f"{what}: not Hermitian (max asymmetry {asym:.3e})")
    trace = complex(m.trace())
    if abs(trace - 1.0) > ATOL:
        raise ValueError(f"{what}: trace {trace.real:.15g} differs from 1")
    lowest = float(np.linalg.eigvalsh(m).min())
    if lowest < -PSD_ATOL:
        raise ValueError(f"{what}: negative eigenvalue {lowest:.3e}")
    return m


@dataclass(frozen=True)
class PhotonPairState:
    """4x4 density operator for the two-photon polarization system."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        checked = _check_density(self.matrix, 4, "photon pair state")
        object.__setattr__(self, "matrix", _frozen_matrix(checked))

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "PhotonPairState":
        """Rank-1 state |v><v| from a (not necessarily normalized) ket."""
        v = np.asarray(vector, dtype=complex).reshape(4)
        norm = float(np.linalg.norm(v))
        if norm <= 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    # Each wing's reduced state, built and validated on first use.
    @cached_property
    def _reduced_a(self) -> "SingleWingState":
        return SingleWingState(_partial_trace(self.matrix, keep=Wing.A))

    @cached_property
    def _reduced_b(self) -> "SingleWingState":
        return SingleWingState(_partial_trace(self.matrix, keep=Wing.B))


@dataclass(frozen=True)
class SingleWingState:
    """2x2 density operator for one photon."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        checked = _check_density(self.matrix, 2, "single wing state")
        object.__setattr__(self, "matrix", _frozen_matrix(checked))

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)


@dataclass(frozen=True)
class Projector:
    """Rank-1 Hermitian idempotent on the single-photon space."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"projector must be 2x2, got shape {m.shape}")
        if float(np.abs(m - m.conj().T).max()) > ATOL:
            raise ValueError("projector is not Hermitian")
        if float(np.abs(m @ m - m).max()) > ATOL:
            raise ValueError("projector is not idempotent")
        if abs(complex(m.trace()) - 1.0) > ATOL:
            raise ValueError("projector is not rank 1")
        object.__setattr__(self, "matrix", _frozen_matrix(m))


class ProbabilityPair(NamedTuple):
    """Probabilities of (V, H) for one wing."""

    v: float
    h: float

    def for_label(self, label: OutcomeLabel) -> float:
        return self.v if label is OutcomeLabel.V else self.h


def _clamp_probability(value: float, what: str) -> float:
    if not (-ATOL <= value <= 1.0 + ATOL):
        raise ValueError(f"{what}: probability {value!r} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome probabilities indexed by (wing A label, wing B label)."""

    vv: float
    vh: float
    hv: float
    hh: float

    def __post_init__(self) -> None:
        for name in ("vv", "vh", "hv", "hh"):
            object.__setattr__(
                self, name, _clamp_probability(getattr(self, name), f"joint entry {name}")
            )
        total = self.vv + self.vh + self.hv + self.hh
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"joint distribution sums to {total!r}, not 1")

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


def maximally_mixed_pair() -> PhotonPairState:
    return PhotonPairState(np.eye(4, dtype=complex) / 4.0)


def axis_ket(angle: AngleLike) -> np.ndarray:
    """Unit ket along the analyzer axis, components ordered (H, V).

    At 0 degrees this is |V>; the angle grows toward |H>.
    """
    rad = as_angle(angle).radians
    return np.array([math.sin(rad), math.cos(rad)], dtype=complex)


def orthogonal_ket(angle: AngleLike) -> np.ndarray:
    rad = as_angle(angle).radians
    return np.array([math.cos(rad), -math.sin(rad)], dtype=complex)


def analyzer_projector(angle: AngleLike, outcome: OutcomeLabel) -> Projector:
    """Projector selecting the given outcome of an analyzer at ``angle``.

    V projects onto the analyzer axis, H onto the orthogonal axis, so
    the two projectors for one angle sum to the identity.
    """
    ket = axis_ket(angle) if outcome is OutcomeLabel.V else orthogonal_ket(angle)
    return Projector(np.outer(ket, ket.conj()))


def product_polarized(angle_a: AngleLike, angle_b: AngleLike) -> PhotonPairState:
    """Product state with each photon polarized along the given axis."""
    ka = axis_ket(angle_a)
    kb = axis_ket(angle_b)
    return PhotonPairState.from_vector(np.kron(ka, kb))


def _as_pair_state(state: PhotonPairState | np.ndarray) -> PhotonPairState:
    if isinstance(state, PhotonPairState):
        return state
    return PhotonPairState(state)


def _wing_projectors(angle: AngleLike) -> np.ndarray:
    """Stacked (V, H) projector matrices; rank-1 outer products satisfy
    the projector laws by construction, so validation is skipped here."""
    rad = as_angle(angle).radians
    sin, cos = math.sin(rad), math.cos(rad)
    return np.array(
        [
            [[sin * sin, sin * cos], [cos * sin, cos * cos]],
            [[cos * cos, -cos * sin], [-sin * cos, sin * sin]],
        ],
        dtype=complex,
    )


def born_joint(
    state: PhotonPairState | np.ndarray, a: AngleLike, b: AngleLike
) -> JointDistribution:
    """Joint outcome distribution Tr(rho P_A x P_B) for analyzers at a, b."""
    rho = _as_pair_state(state)
    reshaped = rho.matrix.reshape(2, 2, 2, 2)
    pa = _wing_projectors(a)
    pb = _wing_projectors(b)
    table = np.einsum("ikjl,mji,nlk->mn", reshaped, pa, pb).real
    return JointDistribution(
        vv=float(table[0, 0]),
        vh=float(table[0, 1]),
        hv=float(table[1, 0]),
        hh=float(table[1, 1]),
    )


def _partial_trace(matrix: np.ndarray, keep: Wing) -> np.ndarray:
    reshaped = matrix.reshape(2, 2, 2, 2)
    if keep is Wing.A:
        return np.einsum("ikjk->ij", reshaped)
    return np.einsum("kikj->ij", reshaped)


def reduced_state(state: PhotonPairState | np.ndarray, wing: Wing) -> SingleWingState:
    """Partial trace over the other wing, computed once per pair state."""
    rho = _as_pair_state(state)
    return rho._reduced_a if wing is Wing.A else rho._reduced_b


def born_marginal(
    state: PhotonPairState | np.ndarray, wing: Wing, angle: AngleLike
) -> ProbabilityPair:
    """Single-wing outcome probabilities for an analyzer at ``angle``.

    Computed from the reduced state of ``wing`` alone, so the result
    never references the remote analyzer angle.
    """
    local = reduced_state(state, wing).matrix
    projectors = _wing_projectors(angle)
    p_v = float(np.einsum("ij,ji->", local, projectors[0]).real)
    p_h = float(np.einsum("ij,ji->", local, projectors[1]).real)
    return ProbabilityPair(
        v=_clamp_probability(p_v, "marginal V"),
        h=_clamp_probability(p_h, "marginal H"),
    )


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
    """
    cond_wing, cond_label = given
    joint = born_joint(state, a, b)
    cond_angle = a if cond_wing is Wing.A else b
    denom = born_marginal(state, cond_wing, cond_angle).for_label(cond_label)
    if denom <= ZERO_PROBABILITY:
        raise UndefinedConditionalError(
            f"conditioning outcome {cond_label.value} on wing {cond_wing.value} "
            f"has probability {denom!r}"
        )
    if cond_wing is Wing.A:
        p_v = joint.prob(cond_label, OutcomeLabel.V) / denom
        p_h = joint.prob(cond_label, OutcomeLabel.H) / denom
    else:
        p_v = joint.prob(OutcomeLabel.V, cond_label) / denom
        p_h = joint.prob(OutcomeLabel.H, cond_label) / denom
    return ProbabilityPair(
        v=_clamp_probability(p_v, "conditional V"),
        h=_clamp_probability(p_h, "conditional H"),
    )


def correlation_E(state: PhotonPairState | np.ndarray, a: AngleLike, b: AngleLike) -> float:
    """Signed outcome correlation: P(+,+) + P(-,-) - P(+,-) - P(-,+)."""
    return born_joint(state, a, b).correlation()


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
    proj = analyzer_projector(angle, outcome).matrix
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
