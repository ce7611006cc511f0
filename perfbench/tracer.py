"""Per-layer tracing of bellsim from outside the program.

``Tracer.install`` replaces each traced callable at every attribute of a
loaded ``bellsim`` module (or class) that binds it, so calls between
bellsim modules are seen as well as calls from the benchmark. While the
tracer is recording, each call appends one span: name, start, end,
parent span and request number. Spans stay in memory, in flat arrays,
and are written out once, at the end of the run. A span's self time is its duration
minus the time its child spans cover.

The layers are bellsim's modules; a span is named ``<module>.<what>``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

#: (module, attribute path, span name). An attribute path with a dot is
#: a method on a class; ``Scenario.__post_init__`` is the validation that
#: every scenario construction runs.
TRACED = (
    ("bellsim.harness", "run_trials", "harness.run_trials"),
    ("bellsim.harness", "write_trial_log", "harness.write_trial_log"),
    ("bellsim.harness", "empirical_statistics", "harness.empirical_statistics"),
    ("bellsim.harness", "render_report", "harness.render_report"),
    ("bellsim.harness", "emit_report", "harness.emit_report"),
    ("bellsim.locality", "ProbabilityModel.table", "locality.table"),
    ("bellsim.locality", "ProbabilityModel.joint", "locality.joint"),
    ("bellsim.locality", "ProbabilityModel.correlation", "locality.correlation"),
    ("bellsim.hidden_variables", "LhvModel.correlation", "locality.correlation"),
    ("bellsim.locality", "check_parameter_independence", "locality.check_parameter_independence"),
    ("bellsim.locality", "check_outcome_independence", "locality.check_outcome_independence"),
    ("bellsim.locality", "check_factorizability", "locality.check_factorizability"),
    ("bellsim.locality", "no_signalling_deviation", "locality.no_signalling_deviation"),
    ("bellsim.quantum", "born_joint", "quantum.born_joint"),
    ("bellsim.quantum", "born_marginal", "quantum.born_marginal"),
    ("bellsim.quantum", "born_conditional", "quantum.born_conditional"),
    ("bellsim.spacetime", "causal_relation", "spacetime.causal_relation"),
    ("bellsim.spacetime", "Scenario.__post_init__", "spacetime.scenario_build"),
    ("bellsim.spacetime", "backward_cone_contents", "spacetime.backward_cone_contents"),
    ("bellsim.chance", "chance_at", "chance.chance_at"),
    ("bellsim.chance", "estimated_chance", "chance.estimated_chance"),
    ("bellsim.chance", "causally_depends", "chance.causally_depends"),
    ("bellsim.chance", "apply_intervention", "chance.apply_intervention"),
    ("bellsim.cli", "main", "cli.main"),
)

#: Per-layer metrics: name -> (unit, how it is computed). "calls" and
#: "self" sum over the listed span names; "counter" reads a counter.
METRICS = {
    "harness.run_trials.calls": ("count", "calls", ("harness.run_trials",)),
    "harness.run_trials.self_ms": ("ms", "self", ("harness.run_trials",)),
    "harness.trials_sampled": ("count", "counter", "trials_sampled"),
    "harness.write_trial_log.self_ms": ("ms", "self", ("harness.write_trial_log",)),
    "harness.write_trial_log.mb": ("MB", "counter", "trial_log_mb"),
    "harness.empirical_statistics.self_ms": ("ms", "self", ("harness.empirical_statistics",)),
    "harness.render_report.self_ms": ("ms", "self", ("harness.render_report", "harness.emit_report")),
    "locality.table.calls": ("count", "calls", ("locality.table",)),
    "locality.table.cells": ("count", "counter", "table_cells"),
    "locality.table.self_ms": ("ms", "self", ("locality.table",)),
    "locality.joint.calls": ("count", "calls", ("locality.joint",)),
    "locality.joint.self_ms": ("ms", "self", ("locality.joint",)),
    "locality.checkers.self_ms": ("ms", "self", (
        "locality.check_parameter_independence", "locality.check_outcome_independence",
        "locality.check_factorizability", "locality.no_signalling_deviation")),
    "locality.correlation.calls": ("count", "calls", ("locality.correlation",)),
    "quantum.born_joint.calls": ("count", "calls", ("quantum.born_joint",)),
    "quantum.born_joint.self_ms": ("ms", "self", ("quantum.born_joint",)),
    "quantum.born_marginal.calls": ("count", "calls", ("quantum.born_marginal",)),
    "quantum.born_marginal.self_ms": ("ms", "self", ("quantum.born_marginal",)),
    "quantum.born_conditional.calls": ("count", "calls", ("quantum.born_conditional",)),
    "quantum.born_conditional.self_ms": ("ms", "self", ("quantum.born_conditional",)),
    "spacetime.causal_relation.calls": ("count", "calls", ("spacetime.causal_relation",)),
    "spacetime.scenario_build.calls": ("count", "calls", ("spacetime.scenario_build",)),
    "spacetime.scenario_build.self_ms": ("ms", "self", ("spacetime.scenario_build",)),
    "spacetime.backward_cone_contents.calls": ("count", "calls", ("spacetime.backward_cone_contents",)),
    "spacetime.backward_cone_contents.self_ms": ("ms", "self", ("spacetime.backward_cone_contents",)),
    "chance.chance_at.calls": ("count", "calls", ("chance.chance_at",)),
    "chance.chance_at.self_ms": ("ms", "self", ("chance.chance_at",)),
    "chance.estimated_chance.calls": ("count", "calls", ("chance.estimated_chance",)),
    "chance.estimated_chance.self_ms": ("ms", "self", ("chance.estimated_chance",)),
    "chance.causally_depends.calls": ("count", "calls", ("chance.causally_depends",)),
    "chance.causally_depends.self_ms": ("ms", "self", ("chance.causally_depends",)),
    "chance.apply_intervention.self_ms": ("ms", "self", ("chance.apply_intervention",)),
    "cli.main.self_ms": ("ms", "self", ("cli.main",)),
}


class Tracer:
    """Records spans of traced bellsim calls made while ``request`` >= 0."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_of = array("i")
        self.counters: dict[str, float] = {}
        self.request = -1
        self._stack: list[int] = []
        self._tables_seen: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span in TRACED:
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self._wrap(span, original)
            setattr(owner, attr, wrapped)
            if not classes:
                for name, module in list(sys.modules.items()):
                    if name == "bellsim" or name.startswith("bellsim."):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)

    def _wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        count = _COUNTERS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(name_id)
            self.start.append(clock())
            self.end.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request_of.append(self.request)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    # -- requests ------------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self._tables_seen = []

    def finish(self) -> None:
        self.request = -1

    # -- results -------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return duration - covered

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-request figures over ``requests`` traced requests."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        self_ms = self.self_times() * 1e3
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=self_ms, minlength=len(self.names))
        out = {}
        for metric, (_unit, kind, source) in METRICS.items():
            if kind == "counter":
                total = self.counters.get(source, 0.0)
            else:
                ids = [self._name_ids[s] for s in source]
                total = float((calls if kind == "calls" else busy)[ids].sum())
            out[metric] = total / requests
        out["trace.spans"] = len(self.start) / requests
        return out

    def write(self, path: str) -> None:
        """Write the spans to an ``.npz`` file: one array per field, plus
        the span names that ``name_id`` indexes."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request_of, dtype=np.int32),
        )


def _count_trials(tracer: Tracer, args, kwargs, result) -> None:
    config = args[0] if args else kwargs["config"]
    tracer.add("trials_sampled", config.trials * len(config.schedule))


def _count_log_mb(tracer: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("trial_log_mb", os.path.getsize(path) / 1e6)


def _count_table_cells(tracer: Tracer, args, kwargs, result) -> None:
    """Cells computed: a table object already returned during this
    request came from the model's cache and costs nothing new."""
    if any(result is seen for seen in tracer._tables_seen):
        return
    tracer._tables_seen.append(result)
    tracer.add("table_cells", result.size // 4)


_COUNTERS = {
    "harness.run_trials": _count_trials,
    "harness.write_trial_log": _count_log_mb,
    "locality.table": _count_table_cells,
}
