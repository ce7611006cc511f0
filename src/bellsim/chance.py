"""Spacetime-point-relativized chances and interventionist dependence tests.

A chance belongs to a point. The point's reference class is what its
closed backward light cone holds of the scenario's indexed events: the
preparation, each wing's setting and each wing's outcome. One private
step, ``_chance``, turns a reference class into a value, and both
``chance_at`` and ``estimated_chance`` go through it:

* If the preparation event is outside the past cone, no chance is
  defined at all (rather than defaulting to a uniform prior).
* Visible outcomes settle a target to exactly 0 or 1 when they can.
* Otherwise the value is the Born probability of the target's open
  wings given every other visible outcome, at visible analyzer angles
  only, so a target whose own setting is invisible or absent has no
  defined chance.
* A single open wing with nothing to condition on is evaluated via its
  reduced state alone, so its value never references the remote side
  (and is bit-identical under remote perturbations).

Chances are therefore perspectival: two points at the same lab time can
assign different, equally correct values to the same event.

An intervention names the event it acts on by its own fields: the
preparation (``ReplacePreparation``) or one wing's setting (``SetAngle``),
and it acts on that event of whichever scenario it is applied to, as a
payload edit (``Scenario.with_state`` or ``Scenario.with_setting``) that
keeps the scenario's event index.
Interventions that force a measurement outcome (``ForceOutcome``) are
representable but always refused; the refusal is a first-class verdict,
not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

from .quantum import (
    ATOL,
    AngleLike,
    AnalyzerAngle,
    OutcomeLabel,
    PhotonPairState,
    UndefinedConditionalError,
    Wing,
    ZERO_PROBABILITY,
    _conditional,
    _joint,
    as_angle,
    born_conditional,
    born_joint,
    born_marginal,
    product_polarized,
)
from .spacetime import (
    EventRecord,
    Outcome,
    Preparation,
    Scenario,
    Setting,
    SpacetimePoint,
    in_causal_past,
    is_spacelike,
)

#: Tolerance used when deciding whether an intervention altered a chance.
DEPENDENCE_TOL = 1e-9


class NoChanceDefinedError(Exception):
    """No chance is defined at this point for this target."""


class SenselessInterventionError(Exception):
    """Raised when an inadmissible intervention is used as a premise."""


# -- targets -----------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeTarget:
    """The event of one wing registering the given outcome."""

    wing: Wing
    label: OutcomeLabel = OutcomeLabel.V


@dataclass(frozen=True)
class JointTarget:
    """The event of both wings registering the given outcomes."""

    label_a: OutcomeLabel = OutcomeLabel.V
    label_b: OutcomeLabel = OutcomeLabel.V


Target = Union[OutcomeTarget, JointTarget]


def vertical_outcome(wing: Wing) -> OutcomeTarget:
    return OutcomeTarget(wing=wing, label=OutcomeLabel.V)


def joint_vertical() -> JointTarget:
    return JointTarget(label_a=OutcomeLabel.V, label_b=OutcomeLabel.V)


def _target_components(target: Target) -> tuple[tuple[Wing, OutcomeLabel], ...]:
    if isinstance(target, OutcomeTarget):
        return ((target.wing, target.label),)
    return ((Wing.A, target.label_a), (Wing.B, target.label_b))


# -- reference classes ---------------------------------------------------------


@dataclass(frozen=True)
class ReferenceClass:
    """What a point can condition on: backing, visible settings, outcomes.

    ``settings`` maps a wing to its analyzer angle only when the setting
    event is inside the past cone; a None value means the visible choice
    was "measure nothing". ``outcomes`` contains only registered
    outcomes inside the past cone.
    """

    state_backed: bool
    settings: Mapping[Wing, AnalyzerAngle | None]
    outcomes: Mapping[Wing, OutcomeLabel]

    def __post_init__(self) -> None:
        for wing in self.outcomes:
            if self.settings.get(wing) is None:
                raise ValueError(
                    f"outcome on wing {wing.value} is accessible but its setting is not"
                )


def reference_class_at(point: SpacetimePoint, scenario: Scenario) -> ReferenceClass:
    """What ``point`` sees of the scenario's indexed events: the ones in its
    closed causal past, read from the index in wing order A, B."""
    preparations, setting_events, outcome_events = scenario._by_kind
    settings: dict[Wing, AnalyzerAngle | None] = {}
    outcomes: dict[Wing, OutcomeLabel] = {}
    for wing in (Wing.A, Wing.B):
        setting, outcome = setting_events.get(wing), outcome_events.get(wing)
        if setting is not None and in_causal_past(setting.point, point):
            settings[wing] = setting.kind.angle
        if outcome is not None and in_causal_past(outcome.point, point):
            outcomes[wing] = outcome.kind.label
    backed = bool(preparations) and in_causal_past(preparations[0].point, point)
    return ReferenceClass(state_backed=backed, settings=settings, outcomes=outcomes)


# -- chances -------------------------------------------------------------------


@dataclass(frozen=True)
class ChanceValue:
    """A probability indexed by the point it is relativized to."""

    value: float
    at: SpacetimePoint
    target: Target

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"chance value {self.value!r} outside [0, 1]")


def _visible_angle(rc: ReferenceClass, wing: Wing, point: SpacetimePoint) -> AnalyzerAngle:
    if wing not in rc.settings:
        raise NoChanceDefinedError(
            f"analyzer setting for wing {wing.value} is outside the past cone "
            f"of ({point.t}, {point.x})"
        )
    angle = rc.settings[wing]
    if angle is None:
        raise NoChanceDefinedError(
            f"no measurement is performed on wing {wing.value}; its outcome "
            "has no defined chance"
        )
    return angle


def _chance(
    state: PhotonPairState, rc: ReferenceClass, target: Target, point: SpacetimePoint, what: str
) -> float:
    """The chance of ``target`` given what ``point`` sees, by the rules in
    the module docstring; ``what`` names the quantity in the error."""
    if not rc.state_backed:
        raise NoChanceDefinedError(
            f"the preparation event is outside the past cone of "
            f"({point.t}, {point.x}); no {what} is defined there"
        )
    open_wings = []
    for wing, label in _target_components(target):
        seen = rc.outcomes.get(wing)
        if seen is None:
            open_wings.append((wing, label))
        elif seen is not label:
            return 0.0
    if not open_wings:
        return 1.0
    if len(open_wings) == 1:
        ((wing, label),) = open_wings
        given = rc.outcomes.get(wing.other())
        if given is None:
            return born_marginal(state, wing, _visible_angle(rc, wing, point)).for_label(label)
    angle_a, angle_b = _visible_angle(rc, Wing.A, point), _visible_angle(rc, Wing.B, point)
    if len(open_wings) == 2:
        return born_joint(state, angle_a, angle_b).prob(open_wings[0][1], open_wings[1][1])
    try:
        pair = born_conditional(state, angle_a, angle_b, given=(wing.other(), given))
    except UndefinedConditionalError:
        raise NoChanceDefinedError(
            f"the outcome {given.value} on wing {wing.other().value} seen from "
            f"({point.t}, {point.x}) has zero probability; no {what} is defined there"
        ) from None
    return pair.for_label(label)


def chance_at(point: SpacetimePoint, target: Target, scenario: Scenario) -> ChanceValue:
    """The chance of ``target`` relativized to ``point``.

    Settled targets (their outcome event already in the past cone) get
    exactly 0 or 1. Otherwise the value is the Born probability of the
    target conditional on every outcome visible at the point.
    """
    rc = reference_class_at(point, scenario)
    return ChanceValue(_chance(scenario.state, rc, target, point, "chance"), point, target)


# -- interventions -------------------------------------------------------------


@dataclass(frozen=True)
class ReplacePreparation:
    """Substitute a different prepared state at the preparation event."""

    state: PhotonPairState


@dataclass(frozen=True)
class SetAngle:
    """Choose a different axis at ``wing``'s setting (or None: measure nothing)."""

    wing: Wing
    angle: AnalyzerAngle | None


@dataclass(frozen=True)
class ForceOutcome:
    """Force a measurement outcome. Constructible, never applicable."""

    wing: Wing
    label: OutcomeLabel


Intervention = Union[ReplacePreparation, SetAngle, ForceOutcome]


@dataclass(frozen=True)
class SenselessIntervention:
    """Refusal verdict: this intervention has no scenario at all."""

    intervention: ForceOutcome
    reason: str


def set_angle_intervention(scenario: Scenario, wing: Wing, angle: AngleLike | None) -> SetAngle:
    if scenario.setting_event(wing) is None:
        raise ValueError(f"scenario has no setting event on wing {wing.value}")
    return SetAngle(wing=wing, angle=None if angle is None else as_angle(angle))


def apply_intervention(
    scenario: Scenario, intervention: Intervention
) -> Scenario | SenselessIntervention:
    """Apply an intervention to the event it names in ``scenario``, or refuse it.

    Preparation replacement and setting changes yield a modified
    scenario, and raise ``ValueError`` when ``scenario`` lacks the event.
    Forcing an outcome is refused with a :class:`SenselessIntervention`
    verdict; it never yields a scenario. Changing a setting to None
    removes that wing's outcome event, since an unperformed measurement
    registers nothing.
    """
    if isinstance(intervention, ForceOutcome):
        return SenselessIntervention(
            intervention=intervention,
            reason=(
                f"forcing outcome {intervention.label.value} on wing "
                f"{intervention.wing.value} is not an admissible intervention: the "
                "outcome's own chance is fixed by the prepared state, and nothing one "
                "could do alters it"
            ),
        )
    if isinstance(intervention, ReplacePreparation):
        return scenario.with_state(intervention.state)
    return scenario.with_setting(intervention.wing, intervention.angle)


# -- estimated chances ---------------------------------------------------------


def estimated_chance(
    point: SpacetimePoint,
    target: Target,
    contemplated: Intervention | None,
    scenario: Scenario,
) -> ChanceValue:
    """Best estimate of the target's downstream chance, formed at ``point``.

    The estimate mixes only for a one-wing target at a point that sees
    the preparation and no outcome yet, with the remote wing measured in
    the (possibly intervened) scenario: it is the sum over the remote
    outcome's two labels of its Born marginal under the contemplated
    setting times the target's Born probability conditional on that
    label. Every other estimate is the chance at ``point`` in the
    intervened scenario.
    """
    if contemplated is not None:
        applied = apply_intervention(scenario, contemplated)
        if isinstance(applied, SenselessIntervention):
            raise SenselessInterventionError(
                "cannot estimate a chance under an outcome-forcing intervention; "
                "no such scenario exists"
            )
        scenario = applied
    state = scenario.state
    rc = reference_class_at(point, scenario)
    remote = target.wing.other() if isinstance(target, OutcomeTarget) else None
    remote_angle = None if remote is None else scenario.angle(remote)
    if remote_angle is None or rc.outcomes or not rc.state_backed:
        return ChanceValue(_chance(state, rc, target, point, "estimate"), point, target)

    own_angle = _visible_angle(rc, target.wing, point)
    angles = (own_angle, remote_angle) if remote is Wing.B else (remote_angle, own_angle)
    # Each weight is bit for bit the denominator born_conditional would
    # compute, so one joint serves both hypothesized labels.
    weights = born_marginal(state, remote, remote_angle)
    joint = _joint(state, *angles)
    estimate = 0.0
    for hypothesized, weight in zip((OutcomeLabel.V, OutcomeLabel.H), weights):
        if weight <= ZERO_PROBABILITY:
            continue
        downstream = _conditional(joint, weight, (remote, hypothesized))
        estimate += weight * downstream.for_label(target.label)
    return ChanceValue(value=min(max(estimate, 0.0), 1.0), at=point, target=target)


# -- causal dependence ----------------------------------------------------------


class CausalVerdictKind(Enum):
    DEPENDENT = "dependent"
    INDEPENDENT = "independent"
    SENSELESS_INTERVENTION = "senseless_intervention"


@dataclass(frozen=True)
class CausalVerdict:
    kind: CausalVerdictKind
    witness: tuple[ChanceValue, ChanceValue] | None = None
    intervention: Intervention | None = None

    def __post_init__(self) -> None:
        if self.kind is CausalVerdictKind.DEPENDENT:
            if self.witness is None:
                raise ValueError("a dependent verdict requires a witness pair")
            baseline, altered = self.witness
            if abs(baseline.value - altered.value) <= DEPENDENCE_TOL:
                raise ValueError("witness chances do not differ beyond tolerance")


#: Replacement states offered as interventions on the preparation event.
#: Chosen so that for every analyzer angle at least one member shifts the
#: marginal away from any prior value (the 0- and 45-degree polarized
#: pairs cannot both give a 1/2 marginal at the same angle). Built once:
#: states are immutable and cache their reduced states.
_PREPARATION_BATTERY = tuple(
    product_polarized(a, b) for a, b in ((0.0, 0.0), (45.0, 45.0), (90.0, 0.0))
)

#: Angle offsets (degrees) tried when intervening on a setting event,
#: plus the "measure nothing" option handled separately.
_SETTING_OFFSETS = (30.0, 45.0, 60.0)


def _admissible_interventions(cause: EventRecord) -> list[Intervention]:
    if isinstance(cause.kind, Preparation):
        return [ReplacePreparation(state) for state in _PREPARATION_BATTERY]
    if isinstance(cause.kind, Setting):
        wing = cause.kind.wing
        current = cause.kind.angle
        if current is None:
            return [SetAngle(wing, AnalyzerAngle(deg)) for deg in (0.0, 45.0, 90.0)]
        return [SetAngle(wing, current.rotated(off)) for off in _SETTING_OFFSETS] + [
            SetAngle(wing, None)
        ]
    return []


def causally_depends(effect: Target, cause: EventRecord, scenario: Scenario) -> CausalVerdict:
    """Interventionist dependence test for ``effect`` on ``cause``.

    Enumerates the admissible interventions on the cause event and
    compares the effect's chance at the scenario's probe r (inside the
    preparation's future, outside both outcome futures); a change beyond
    ``DEPENDENCE_TOL`` is a dependence. Outcome events admit no
    intervention at all, which is reported as a verdict, not an error.
    Interventions that leave the effect's chance undefined are skipped:
    they withdraw the chance rather than altering it.
    """
    if isinstance(cause.kind, Outcome) and isinstance(effect, OutcomeTarget):
        if cause.kind.wing is effect.wing:
            raise ValueError("effect and cause must be distinct events")
    interventions = _admissible_interventions(cause)
    if not interventions:
        return CausalVerdict(
            kind=CausalVerdictKind.SENSELESS_INTERVENTION,
            intervention=ForceOutcome(cause.kind.wing, cause.kind.label)
            if isinstance(cause.kind, Outcome)
            else None,
        )
    baseline = chance_at(scenario.r, effect, scenario)
    for intervention in interventions:
        altered_scenario = apply_intervention(scenario, intervention)
        try:
            altered = chance_at(scenario.r, effect, altered_scenario)
        except NoChanceDefinedError:
            continue
        if abs(altered.value - baseline.value) > DEPENDENCE_TOL:
            return CausalVerdict(
                kind=CausalVerdictKind.DEPENDENT,
                witness=(baseline, altered),
                intervention=intervention,
            )
    return CausalVerdict(kind=CausalVerdictKind.INDEPENDENT)


# -- the two readings of "unaltered by remote specification" -------------------


@dataclass(frozen=True)
class LocalCausalityReadings:
    """Both readings of the requirement that remote outcomes not alter
    the probability of a local one, evaluated on one scenario.

    The conditional-equality reading compares the unconditional outcome
    probability with the probability conditional on the remote outcome;
    for entangled states it generally fails. The fixed-point reading
    asks whether the chance relativized to a fixed point changes when
    the remote, spacelike outcome is respecified; it holds, since a
    point's chance only draws on its own backward cone.
    """

    conditional_equality_holds: bool
    unconditional: float
    conditional_on_remote: float
    fixed_point_holds: bool
    fixed_point_samples: tuple[tuple[str, float, float], ...]


def local_causality_readings(scenario: Scenario) -> LocalCausalityReadings:
    """Evaluate both readings for the wing-A vertical outcome; the
    conditional-equality reading holds when the two probabilities agree
    within ``ATOL``."""
    angle_a = scenario.angle(Wing.A)
    angle_b = scenario.angle(Wing.B)
    outcome_b = scenario.outcome_event(Wing.B)
    if angle_a is None or angle_b is None or outcome_b is None:
        raise ValueError("both wings must be measured with a registered B outcome")
    unconditional = born_marginal(scenario.state, Wing.A, angle_a).v
    conditional = born_conditional(
        scenario.state, angle_a, angle_b, given=(Wing.B, outcome_b.kind.label)
    ).v

    target = vertical_outcome(Wing.A)
    samples = []
    fixed_point_holds = True
    flipped_label = (
        OutcomeLabel.H if outcome_b.kind.label is OutcomeLabel.V else OutcomeLabel.V
    )
    flipped = scenario.with_outcome(Wing.B, flipped_label)
    for name, point in (("p", scenario.p), ("p_prime", scenario.p_prime)):
        if not is_spacelike(point, outcome_b.point):
            continue
        base = chance_at(point, target, scenario).value
        respecified = chance_at(point, target, flipped).value
        samples.append((name, base, respecified))
        if base != respecified:
            fixed_point_holds = False
    return LocalCausalityReadings(
        conditional_equality_holds=abs(unconditional - conditional) <= ATOL,
        unconditional=unconditional,
        conditional_on_remote=conditional,
        fixed_point_holds=fixed_point_holds,
        fixed_point_samples=tuple(samples),
    )
