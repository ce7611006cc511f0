"""1+1 dimensional Minkowski geometry for the two-wing experiment.

Points carry lab-frame coordinates (t, x) in units with c = 1 and store
their null coordinates u = t - x and w = t + x, computed once when the
point is built. Light cones are closed, and classification only compares
stored floats: q is in p's past when q.u <= p.u and q.w <= p.w, in its
future when both are >=, and spacelike otherwise. A boost scales u by
e^zeta and w by e^-zeta and derives t and x from them. Rounded scaling
by one positive factor never reverses an order but can round a gap to
0, so a boost keeps every class with two exceptions: a spacelike pair
whose null gap rounds to 0 becomes lightlike, and a future pair whose
two null gaps both round to 0 becomes one point, which counts as its
own causal past. Inputs are classified by their float values:
(0.1, 0.2) and (0.4, 0.5), lightlike in decimal, are not in float.
Scenario JSON writes u and w beside t and x, so a point, boosted or
not, loads with the null coordinates it was saved with.

Regions are represented by labeled events rather than extended point
sets, since only membership and causal relations are ever queried.

A scenario validates its events and indexes them by kind once, when it
is built, and ``with_events`` validates and indexes again. The payload
edits ``with_state``, ``with_setting`` and ``with_outcome`` move no
point, so they keep every rule and carry the parent's index over,
copying only the index entries they change.

Canonical layout coordinates (a documented contract, relied on by the
chance analysis and its tests):

* source event ``o`` at (0, 0) on the source worldline;
* wing outcomes at (6, -4) for A and (6, +4) for B;
* setting events either deep in the shared past at (1, -0.5) / (1, +0.5)
  ("settings in overlap" layout) or just below the outcomes at
  (5.5, -4) / (5.5, +4) ("late settings" layout);
* probe points p = (5.75, -4), p' = (5.75, +4), q = (7, +4);
* probe r = (3, 0) in the overlap layout. In the late layout r moves to
  (9.75, 0), the earliest on-axis region where both setting events are
  inside the past cone while both outcomes are still outside it; note
  that this places r later in lab time than the outcomes themselves.

``load_scenario`` reads a scenario spec: ``"overlap"`` or ``"late"`` for
the two layouts, each built once at import and shared, or the path of a
scenario JSON file, read on each call.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .quantum import (
    PHI_PLUS,
    AngleLike,
    AnalyzerAngle,
    OutcomeLabel,
    PhotonPairState,
    Wing,
    as_angle,
)

SCENARIO_FORMAT = "bellsim-scenario-v1"


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    x: float
    #: Null coordinates t - x and t + x, stored when the point is built.
    u: float = field(init=False, repr=False, compare=False)
    w: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t, x = float(self.t), float(self.x)
        self._store(t, x, t - x, t + x)

    @classmethod
    def _exact(cls, t: float, x: float, u: float, w: float) -> "SpacetimePoint":
        """The point holding these four coordinates; the caller makes them agree."""
        point = object.__new__(cls)
        point._store(t, x, u, w)
        return point

    def _store(self, t: float, x: float, u: float, w: float) -> None:
        for name, value in (("t", t), ("x", x), ("u", u), ("w", w)):
            if not math.isfinite(value):
                raise ValueError(f"coordinate {name}={value!r} of ({t}, {x}) must be finite")
            object.__setattr__(self, name, value)

    def boosted(self, rapidity: float) -> "SpacetimePoint":
        """Active Lorentz boost with the given rapidity."""
        k = math.exp(rapidity)
        u, w = self.u * k, self.w / k
        return SpacetimePoint._exact(u / 2.0 + w / 2.0, w / 2.0 - u / 2.0, u, w)


class CausalRelation(Enum):
    CAUSAL_PAST = "causal_past"
    CAUSAL_FUTURE = "causal_future"
    SPACELIKE = "spacelike"


def in_causal_past(q: SpacetimePoint, p: SpacetimePoint) -> bool:
    """True when q lies in the closed causal past of p: the one cone test,
    on the stored null coordinates."""
    return q.u <= p.u and q.w <= p.w


def causal_relation(p: SpacetimePoint, q: SpacetimePoint) -> CausalRelation:
    """Classify q relative to p's closed light cones.

    The degenerate case q == p is reported as CAUSAL_PAST (a point
    belongs to its own closed cone).
    """
    if in_causal_past(q, p):
        return CausalRelation.CAUSAL_PAST
    if in_causal_past(p, q):
        return CausalRelation.CAUSAL_FUTURE
    return CausalRelation.SPACELIKE


def is_spacelike(p: SpacetimePoint, q: SpacetimePoint) -> bool:
    return causal_relation(p, q) is CausalRelation.SPACELIKE


class RegionLabel(Enum):
    ONE = "one"
    TWO = "two"
    THREE_A = "three_a"
    THREE_B = "three_b"
    OVERLAP = "overlap"
    SOURCE_WORLDLINE = "source_worldline"


@dataclass(frozen=True)
class Preparation:
    """The pair-production event backing the scenario's state assignment."""


@dataclass(frozen=True)
class Setting:
    """Selection of an analyzer axis; ``angle`` None means no measurement."""

    wing: Wing
    angle: AnalyzerAngle | None


@dataclass(frozen=True)
class Outcome:
    """A registered detection outcome on one wing."""

    wing: Wing
    label: OutcomeLabel


EventKind = Union[Preparation, Setting, Outcome]


@dataclass(frozen=True)
class EventRecord:
    id: str
    point: SpacetimePoint
    region: RegionLabel
    kind: EventKind


_OUTCOME_REGION = {Wing.A: RegionLabel.ONE, Wing.B: RegionLabel.TWO}


def _events_by_kind(events: Iterable[EventRecord]):
    preparations: list[EventRecord] = []
    settings: dict[Wing, EventRecord] = {}
    outcomes: dict[Wing, EventRecord] = {}
    for ev in events:
        if isinstance(ev.kind, Preparation):
            preparations.append(ev)
        elif isinstance(ev.kind, Setting):
            if ev.kind.wing in settings:
                raise ValueError(f"duplicate setting event for wing {ev.kind.wing.value}")
            settings[ev.kind.wing] = ev
        elif isinstance(ev.kind, Outcome):
            if ev.kind.wing in outcomes:
                raise ValueError(f"duplicate outcome event for wing {ev.kind.wing.value}")
            outcomes[ev.kind.wing] = ev
        else:
            raise ValueError(f"unknown event kind {ev.kind!r}")
    if len(preparations) > 1:
        raise ValueError("a scenario may contain at most one preparation event")
    return preparations, settings, outcomes


@dataclass(frozen=True)
class Scenario:
    """A concrete run geometry: state, localized events and probe points."""

    state: PhotonPairState
    events: tuple[EventRecord, ...]
    p: SpacetimePoint
    p_prime: SpacetimePoint
    q: SpacetimePoint
    r: SpacetimePoint
    #: (preparations, settings by wing, outcomes by wing), built once.
    _by_kind: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        ids = [ev.id for ev in self.events]
        if len(set(ids)) != len(ids):
            raise ValueError(f"event ids are not unique: {ids}")
        preparations, settings, outcomes = _events_by_kind(self.events)
        object.__setattr__(self, "_by_kind", (preparations, settings, outcomes))
        for wing, outcome in outcomes.items():
            if outcome.region is not _OUTCOME_REGION[wing]:
                raise ValueError(
                    f"outcome for wing {wing.value} must carry region "
                    f"{_OUTCOME_REGION[wing].value}"
                )
            setting = settings.get(wing)
            if setting is None or setting.kind.angle is None:
                raise ValueError(
                    f"outcome on wing {wing.value} requires a setting event "
                    "with a concrete angle"
                )
            if not in_causal_past(setting.point, outcome.point):
                raise ValueError(
                    f"setting for wing {wing.value} must causally precede its outcome"
                )
        if Wing.A in outcomes and Wing.B in outcomes:
            if not is_spacelike(outcomes[Wing.A].point, outcomes[Wing.B].point):
                raise ValueError("the two outcome events must be spacelike separated")
        # Probe geometry: p and p' are spacelike to the opposite outcome,
        # q sees wing B's outcome but not wing A's, r sits inside the
        # source's future but outside both outcome futures.
        if Wing.B in outcomes and not is_spacelike(self.p, outcomes[Wing.B].point):
            raise ValueError("probe p must be spacelike to the wing-B outcome")
        if Wing.A in outcomes and not is_spacelike(self.p_prime, outcomes[Wing.A].point):
            raise ValueError("probe p' must be spacelike to the wing-A outcome")
        if Wing.B in outcomes and not in_causal_past(outcomes[Wing.B].point, self.q):
            raise ValueError("probe q must have the wing-B outcome in its past")
        if Wing.A in outcomes and in_causal_past(outcomes[Wing.A].point, self.q):
            raise ValueError("probe q must not have the wing-A outcome in its past")
        if preparations and not in_causal_past(preparations[0].point, self.r):
            raise ValueError("probe r must lie in the preparation's causal future")
        for wing, outcome in outcomes.items():
            if in_causal_past(outcome.point, self.r):
                raise ValueError(f"probe r must not see the wing-{wing.value} outcome")

    # -- accessors ---------------------------------------------------------

    def preparation_event(self) -> EventRecord | None:
        preparations, _, _ = self._by_kind
        return preparations[0] if preparations else None

    def setting_event(self, wing: Wing) -> EventRecord | None:
        return self._by_kind[1].get(wing)

    def outcome_event(self, wing: Wing) -> EventRecord | None:
        return self._by_kind[2].get(wing)

    def angle(self, wing: Wing) -> AnalyzerAngle | None:
        setting = self.setting_event(wing)
        return setting.kind.angle if setting is not None else None

    def probe(self, name: str) -> SpacetimePoint:
        points = {"p": self.p, "p'": self.p_prime, "p_prime": self.p_prime,
                  "q": self.q, "r": self.r}
        try:
            return points[name]
        except KeyError:
            raise KeyError(f"unknown probe point {name!r}; expected p, p', q or r") from None

    def with_state(self, state: PhotonPairState) -> "Scenario":
        """This scenario with another prepared state; the index carries over.
        A scenario with no preparation event raises ``ValueError``."""
        if self.preparation_event() is None:
            raise ValueError("scenario has no preparation event")
        return self._edited(state=state)

    def with_setting(self, wing: Wing, angle: AngleLike | None) -> "Scenario":
        """This scenario with ``wing``'s setting turned to ``angle``; None
        (measure nothing) also drops that wing's outcome event, since an
        unperformed measurement registers nothing. The index carries over."""
        preparations, settings, outcomes = self._by_kind
        old = settings.get(wing)
        if old is None:
            raise ValueError(f"scenario has no setting event on wing {wing.value}")
        angle = None if angle is None else as_angle(angle)
        new = EventRecord(old.id, old.point, old.region, Setting(wing=wing, angle=angle))
        dropped = outcomes.get(wing) if angle is None else None
        if dropped is not None:
            outcomes = {w: ev for w, ev in outcomes.items() if w is not wing}
        return self._edited(
            events=tuple(new if ev is old else ev for ev in self.events if ev is not dropped),
            _by_kind=(preparations, {**settings, wing: new}, outcomes),
        )

    def with_outcome(self, wing: Wing, label: OutcomeLabel) -> "Scenario":
        """This scenario with ``wing``'s outcome event registering ``label``;
        the index carries over."""
        preparations, settings, outcomes = self._by_kind
        old = outcomes.get(wing)
        if old is None:
            raise ValueError(f"scenario has no outcome event on wing {wing.value}")
        new = EventRecord(old.id, old.point, old.region, Outcome(wing=wing, label=label))
        return self._edited(
            events=tuple(new if ev is old else ev for ev in self.events),
            _by_kind=(preparations, settings, {**outcomes, wing: new}),
        )

    def with_events(self, events: Iterable[EventRecord]) -> "Scenario":
        """This scenario with ``events``, validated and indexed afresh."""
        return replace(self, events=tuple(events))

    def _edited(self, **fields) -> "Scenario":
        """A copy with ``fields`` replaced, built without ``__post_init__``.

        Only for payload edits (a state, an angle, a label, or a dropped
        outcome whose setting has no axis left), which move no point and
        so keep every rule ``__post_init__`` checks; ``fields`` carries
        the edited index. The parent's index is shared, never mutated.
        """
        edited = object.__new__(type(self))
        vars(edited).update(vars(self), **fields)
        return edited

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        def point_dict(point: SpacetimePoint) -> dict:
            return {"t": point.t, "x": point.x, "u": point.u, "w": point.w}

        def kind_dict(kind: EventKind) -> dict:
            if isinstance(kind, Preparation):
                return {"type": "preparation"}
            if isinstance(kind, Setting):
                angle = None if kind.angle is None else kind.angle.degrees
                return {"type": "setting", "wing": kind.wing.value, "angle_deg": angle}
            return {"type": "outcome", "wing": kind.wing.value, "label": kind.label.value}

        matrix = self.state.matrix
        return {
            "format": SCENARIO_FORMAT,
            "state": {
                "matrix_real": matrix.real.tolist(),
                "matrix_imag": matrix.imag.tolist(),
            },
            "events": [
                {
                    "id": ev.id,
                    **point_dict(ev.point),
                    "region": ev.region.value,
                    "kind": kind_dict(ev.kind),
                }
                for ev in self.events
            ],
            "probes": {
                "p": point_dict(self.p),
                "p_prime": point_dict(self.p_prime),
                "q": point_dict(self.q),
                "r": point_dict(self.r),
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        """Read the form ``to_json_dict`` writes; a malformed part raises
        one ``ValueError`` that names it."""
        if not isinstance(data, dict):
            raise ValueError(f"scenario must be a JSON object, got {data!r}")
        if data.get("format") != SCENARIO_FORMAT:
            raise ValueError(f"unsupported scenario format {data.get('format')!r}")
        # 1j * inf is nan + inf j; the state check refuses it without a warning
        with _malformed("state"), np.errstate(invalid="ignore"):
            real, imag = (
                np.array([[_number(v) for v in row] for row in data["state"][key]], dtype=float)
                for key in ("matrix_real", "matrix_imag")
            )
            state = PhotonPairState(real + 1j * imag)
        entries = data.get("events")
        if not isinstance(entries, list):
            raise ValueError(f"malformed scenario events: expected a list, got {entries!r}")
        events = []
        for i, ev in enumerate(entries):
            with _malformed(f"event {i}"):
                events.append(_event_from_json(ev))
        with _malformed("probes"):
            probes = {name: _point(data["probes"][name]) for name in ("p", "p_prime", "q", "r")}
        return cls(state=state, events=tuple(events), **probes)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_json_dict(json.loads(text))


@contextmanager
def _malformed(part: str):
    """Report a wrongly shaped scenario part as one ``ValueError`` naming it."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"malformed scenario {part}: {message}") from exc


def _number(value) -> float:
    """A JSON number; strings and booleans are not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def _point(data: dict) -> SpacetimePoint:
    """The point at ``t``, ``x``, or, when ``u`` and ``w`` are written too,
    the point holding all four, which must agree the way the constructor
    (u = t - x, w = t + x) or a boost (t = u/2 + w/2, x = w/2 - u/2) makes
    them. Files without ``u`` and ``w`` derive them from ``t`` and ``x``."""
    t, x = _number(data["t"]), _number(data["x"])
    if "u" not in data and "w" not in data:
        return SpacetimePoint(t, x)
    u, w = _number(data["u"]), _number(data["w"])
    if not ((u == t - x and w == t + x) or (t == u / 2.0 + w / 2.0 and x == w / 2.0 - u / 2.0)):
        raise ValueError(f"null coordinates u={u!r}, w={w!r} do not match t={t!r}, x={x!r}")
    return SpacetimePoint._exact(t, x, u, w)


def _event_from_json(ev: dict) -> EventRecord:
    kind_data = ev["kind"]
    kind: EventKind
    if kind_data["type"] == "preparation":
        kind = Preparation()
    elif kind_data["type"] == "setting":
        angle = kind_data["angle_deg"]
        kind = Setting(
            wing=Wing(kind_data["wing"]),
            angle=None if angle is None else AnalyzerAngle(_number(angle)),
        )
    elif kind_data["type"] == "outcome":
        kind = Outcome(wing=Wing(kind_data["wing"]), label=OutcomeLabel(kind_data["label"]))
    else:
        raise ValueError(f"unknown event kind {kind_data['type']!r}")
    return EventRecord(
        id=ev["id"],
        point=_point(ev),
        region=RegionLabel(ev["region"]),
        kind=kind,
    )


def load_scenario(spec: str) -> Scenario:
    """The built-in layout ``"overlap"`` or ``"late"`` (``standard_scenario``
    with or without ``settings_in_overlap``), one object built at import,
    or the scenario file at the path ``spec``, read on each call."""
    if spec in _LAYOUTS:
        return _LAYOUTS[spec]
    with open(spec, "r", encoding="utf-8") as handle:
        return Scenario.from_json(handle.read())


def backward_cone_contents(
    point: SpacetimePoint, scenario: Scenario
) -> tuple[EventRecord, ...]:
    """Events whose points lie in the closed causal past of ``point``."""
    return tuple(ev for ev in scenario.events if in_causal_past(ev.point, point))


# -- canonical layout builder ----------------------------------------------

_SOURCE = SpacetimePoint(0.0, 0.0)
_OUTCOME_POINT = {Wing.A: SpacetimePoint(6.0, -4.0), Wing.B: SpacetimePoint(6.0, 4.0)}
_OVERLAP_SETTING = {Wing.A: SpacetimePoint(1.0, -0.5), Wing.B: SpacetimePoint(1.0, 0.5)}
_LATE_SETTING = {Wing.A: SpacetimePoint(5.5, -4.0), Wing.B: SpacetimePoint(5.5, 4.0)}
_PROBE_P = SpacetimePoint(5.75, -4.0)
_PROBE_P_PRIME = SpacetimePoint(5.75, 4.0)
_PROBE_Q = SpacetimePoint(7.0, 4.0)
_PROBE_R_OVERLAP = SpacetimePoint(3.0, 0.0)
_PROBE_R_LATE = SpacetimePoint(9.75, 0.0)


def standard_scenario(
    *,
    settings_in_overlap: bool = False,
    angle_a: AngleLike | None = 0.0,
    angle_b: AngleLike | None = 0.0,
    outcome_a: OutcomeLabel | None = OutcomeLabel.V,
    outcome_b: OutcomeLabel | None = OutcomeLabel.V,
    state: PhotonPairState | None = None,
) -> Scenario:
    """Build the canonical two-wing layout.

    By default the setting events sit just below their own outcome
    regions, spacelike separated from everything on the opposite side.
    With ``settings_in_overlap=True`` both settings move deep into the
    shared past, inside the backward cones of both outcome regions, and
    every probe point can see them.

    An angle of None means no measurement is performed on that wing, in
    which case the wing has a setting event with no axis and no outcome
    event; requesting an outcome there is rejected. Without a state the
    scenario holds ``quantum.PHI_PLUS``.
    """
    angles: dict[Wing, AnalyzerAngle | None] = {
        Wing.A: None if angle_a is None else as_angle(angle_a),
        Wing.B: None if angle_b is None else as_angle(angle_b),
    }
    outcomes: dict[Wing, OutcomeLabel | None] = {Wing.A: outcome_a, Wing.B: outcome_b}
    for wing in (Wing.A, Wing.B):
        if angles[wing] is None and outcomes[wing] is not None:
            raise ValueError(
                f"wing {wing.value} has no measurement; it cannot have an outcome"
            )

    setting_points = _OVERLAP_SETTING if settings_in_overlap else _LATE_SETTING
    setting_region = (
        {Wing.A: RegionLabel.OVERLAP, Wing.B: RegionLabel.OVERLAP}
        if settings_in_overlap
        else {Wing.A: RegionLabel.ONE, Wing.B: RegionLabel.TWO}
    )
    events = [
        EventRecord(
            id="o",
            point=_SOURCE,
            region=RegionLabel.SOURCE_WORLDLINE,
            kind=Preparation(),
        )
    ]
    for wing, suffix in ((Wing.A, "a"), (Wing.B, "b")):
        events.append(
            EventRecord(
                id=f"setting-{suffix}",
                point=setting_points[wing],
                region=setting_region[wing],
                kind=Setting(wing=wing, angle=angles[wing]),
            )
        )
        label = outcomes[wing]
        if label is not None:
            events.append(
                EventRecord(
                    id=f"outcome-{suffix}",
                    point=_OUTCOME_POINT[wing],
                    region=_OUTCOME_REGION[wing],
                    kind=Outcome(wing=wing, label=label),
                )
            )
    return Scenario(
        state=PHI_PLUS if state is None else state,
        events=tuple(events),
        p=_PROBE_P,
        p_prime=_PROBE_P_PRIME,
        q=_PROBE_Q,
        r=_PROBE_R_OVERLAP if settings_in_overlap else _PROBE_R_LATE,
    )


_LAYOUTS = {"overlap": standard_scenario(settings_in_overlap=True), "late": standard_scenario()}
