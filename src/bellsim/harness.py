"""Monte Carlo trial runner, empirical statistics and report emission.

Sampling is reproducible to the bit under any execution plan. Each
(seed, pair) gets its own Philox counter-based stream, and trial i
consumes exactly the two uniforms at stream positions 2i and 2i + 1:
one to pick a hidden-variable node from the model prior, one to pick
the joint outcome cell. Chunks therefore start on even trial indices
(Philox jumps in blocks of four outputs), and workers write into
preassigned slots, so the log is identical whether trials run in one
block, in chunks, or on several threads.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .hidden_variables import builtin_vector_model
from .locality import ProbabilityModel, quantum_model, signalling_fixture_model
from .quantum import AngleLike, AnalyzerAngle, OutcomeLabel, Wing, as_angle
from .spacetime import Scenario

DEFAULT_SEED = 0

#: The four (a, b) pairs whose correlations enter E1 + E2 + E3 - E4 at
#: the angles where the entangled pair reaches 2*sqrt(2).
CHSH_OPTIMAL_QUADRUPLE = (0.0, 45.0, 22.5, -22.5)

MODEL_BUILDERS = {
    "qm": quantum_model,
    "lhv": builtin_vector_model,
    "fixture": signalling_fixture_model,
}

#: Column order of the CSV report; one trailing summary row carries the
#: CHSH combination in the E / E_stderr columns with pair_index "CHSH".
CSV_COLUMNS = (
    "pair_index",
    "a_deg",
    "b_deg",
    "n",
    "f_VV",
    "f_VH",
    "f_HV",
    "f_HH",
    "E",
    "E_stderr",
)


#: Keys a JSON run config may carry. ``scenario`` is read by the CLI (it
#: attaches outcome coordinates to the trial log), not by ``RunConfig``.
CONFIG_KEYS = ("model", "schedule", "trials", "seed", "trial_log_path", "report_path",
               "report_format", "scenario")


def chsh_schedule(
    a: AngleLike, a_prime: AngleLike, b: AngleLike, b_prime: AngleLike
) -> tuple[tuple[AnalyzerAngle, AnalyzerAngle], ...]:
    """Pair schedule ((a,b), (a,b'), (a',b), (a',b')) for a CHSH run."""
    aa, ap, bb, bp = (as_angle(x) for x in (a, a_prime, b, b_prime))
    return ((aa, bb), (aa, bp), (ap, bb), (ap, bp))


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on."""

    model: str
    schedule: tuple[tuple[AnalyzerAngle, AnalyzerAngle], ...]
    trials: int
    seed: int = DEFAULT_SEED
    trial_log_path: str | None = None
    report_path: str | None = None
    report_format: str = "json"

    def __post_init__(self) -> None:
        if self.model not in MODEL_BUILDERS:
            raise ValueError(
                f"unknown model {self.model!r}; expected one of {sorted(MODEL_BUILDERS)}"
            )
        schedule = tuple((as_angle(a), as_angle(b)) for a, b in self.schedule)
        if not schedule:
            raise ValueError("angle schedule must be nonempty")
        object.__setattr__(self, "schedule", schedule)
        if int(self.trials) < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        object.__setattr__(self, "trials", int(self.trials))
        seed = int(self.seed)
        if not (0 <= seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {seed!r}")
        object.__setattr__(self, "seed", seed)
        if self.report_format not in ("json", "csv"):
            raise ValueError(f"report format must be json or csv, got {self.report_format!r}")

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "schedule": [[a.degrees, b.degrees] for a, b in self.schedule],
            "trials": self.trials,
            "seed": self.seed,
            "trial_log_path": self.trial_log_path,
            "report_path": self.report_path,
            "report_format": self.report_format,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        """Parse a config object: ``model`` is required, other keys outside
        ``CONFIG_KEYS`` are rejected."""
        if not isinstance(data, dict) or "model" not in data:
            raise ValueError("config must be a JSON object with the required key 'model'")
        unknown = sorted(set(data) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; expected keys from {list(CONFIG_KEYS)}")
        schedule = data.get("schedule", "chsh-optimal")
        if schedule == "chsh-optimal":
            pairs = chsh_schedule(*CHSH_OPTIMAL_QUADRUPLE)
        elif isinstance(schedule, list) and all(isinstance(p, list) and len(p) == 2 for p in schedule):
            pairs = tuple((p[0], p[1]) for p in schedule)
        else:
            raise ValueError(f"schedule must be 'chsh-optimal' or [a, b] pairs, got {schedule!r}")
        return cls(
            model=data["model"],
            schedule=pairs,
            trials=data.get("trials", 1000),
            seed=data.get("seed", DEFAULT_SEED),
            trial_log_path=data.get("trial_log_path"),
            report_path=data.get("report_path"),
            report_format=data.get("report_format", "json"),
        )


@dataclass(frozen=True)
class TrialRecord:
    """One sampled coincidence."""

    pair_index: int
    trial_index: int
    a: AnalyzerAngle
    b: AnalyzerAngle
    outcome_a: OutcomeLabel
    outcome_b: OutcomeLabel
    coordinates: dict | None = None


@dataclass(frozen=True, eq=False)
class PairSamples:
    """All trials of one scheduled pair, as +/-1 sign arrays."""

    pair_index: int
    a: AnalyzerAngle
    b: AnalyzerAngle
    signs_a: np.ndarray
    signs_b: np.ndarray

    def __post_init__(self) -> None:
        for name in ("signs_a", "signs_b"):
            arr = np.asarray(getattr(self, name), dtype=np.int8)
            if not np.isin(arr, (-1, 1)).all():
                raise ValueError(f"{name} must contain only +/-1")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.signs_a.shape != self.signs_b.shape:
            raise ValueError("wings recorded different trial counts")

    @property
    def n(self) -> int:
        return int(self.signs_a.size)


@dataclass(frozen=True, eq=False)
class TrialLog:
    config: RunConfig
    pairs: tuple[PairSamples, ...]
    outcome_coordinates: dict | None = None

    def records(self) -> Iterator[TrialRecord]:
        for pair in self.pairs:
            for i in range(pair.n):
                yield TrialRecord(
                    pair_index=pair.pair_index,
                    trial_index=i,
                    a=pair.a,
                    b=pair.b,
                    outcome_a=OutcomeLabel.from_sign(int(pair.signs_a[i])),
                    outcome_b=OutcomeLabel.from_sign(int(pair.signs_b[i])),
                    coordinates=self.outcome_coordinates,
                )


def resolve_model(name: str) -> ProbabilityModel:
    return MODEL_BUILDERS[name]()


def _pair_tables(model: ProbabilityModel, a: AnalyzerAngle, b: AnalyzerAngle):
    """Cumulative prior and per-lambda cumulative joint cells for sampling."""
    prior_cum = np.cumsum(model.weights)
    cells = model.cells([a], [b])[0, 0].reshape(-1, 4)  # (VV, VH, HV, HH) per lambda
    cell_cum = np.cumsum(cells, axis=1)
    return prior_cum, cell_cum


def _sample_chunk(
    seed: int,
    pair_index: int,
    lo: int,
    hi: int,
    prior_cum: np.ndarray,
    cell_cum: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample trials [lo, hi); lo must be even (stream block alignment)."""
    assert lo % 2 == 0
    bitgen = np.random.Philox(key=np.array([seed, pair_index], dtype=np.uint64))
    if lo:
        bitgen.advance(lo // 2)  # one Philox block covers two trials
    uniforms = np.random.Generator(bitgen).random(2 * (hi - lo))
    u_cell = uniforms[1::2]
    if len(prior_cum) == 1:
        # single-lambda model: the lambda draw is consumed but unused
        cell = (u_cell[:, None] >= cell_cum[0, :3]).sum(axis=1)
    else:
        lam = np.searchsorted(prior_cum, uniforms[0::2], side="right")
        np.clip(lam, 0, len(prior_cum) - 1, out=lam)
        cell = (u_cell[:, None] >= cell_cum[lam, :3]).sum(axis=1)
    signs_a = (1 - 2 * (cell >> 1)).astype(np.int8)
    signs_b = (1 - 2 * (cell & 1)).astype(np.int8)
    return signs_a, signs_b


def run_trials(
    config: RunConfig,
    scenario: Scenario | None = None,
    model: ProbabilityModel | None = None,
    *,
    workers: int = 1,
    chunk_size: int = 65536,
) -> TrialLog:
    """Sample the configured schedule.

    ``workers`` and ``chunk_size`` only choose an execution plan; the
    returned log is bit-identical for every choice. When a scenario is
    supplied, its outcome event coordinates are attached to the log.
    """
    active = model if model is not None else resolve_model(config.model)
    chunk = max(2, int(chunk_size))
    chunk += chunk % 2  # chunks must start on even trial indices
    pairs = []
    for pair_index, (a, b) in enumerate(config.schedule):
        prior_cum, cell_cum = _pair_tables(active, a, b)
        n = config.trials
        bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        signs_a = np.empty(n, dtype=np.int8)
        signs_b = np.empty(n, dtype=np.int8)

        def fill(span, *, _pair=pair_index, _pc=prior_cum, _cc=cell_cum,
                 _sa=signs_a, _sb=signs_b):
            lo, hi = span
            sa, sb = _sample_chunk(config.seed, _pair, lo, hi, _pc, _cc)
            _sa[lo:hi] = sa
            _sb[lo:hi] = sb

        if workers > 1 and len(bounds) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(fill, bounds))
        else:
            for span in bounds:
                fill(span)
        pairs.append(
            PairSamples(pair_index=pair_index, a=a, b=b, signs_a=signs_a, signs_b=signs_b)
        )
    coordinates = None
    if scenario is not None:
        coordinates = {}
        for wing in (Wing.A, Wing.B):
            outcome = scenario.outcome_event(wing)
            if outcome is not None:
                coordinates[wing.value] = {"t": outcome.point.t, "x": outcome.point.x}
    return TrialLog(config=config, pairs=tuple(pairs), outcome_coordinates=coordinates)


# -- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class PairStatistics:
    pair_index: int
    a_deg: float
    b_deg: float
    n: int
    counts: tuple[int, int, int, int]
    frequencies: tuple[float, float, float, float]
    correlation: float
    correlation_stderr: float

    def frequency(self, a: OutcomeLabel, b: OutcomeLabel) -> float:
        index = 2 * (0 if a is OutcomeLabel.V else 1) + (0 if b is OutcomeLabel.V else 1)
        return self.frequencies[index]

    def wing_frequency(self, wing: Wing) -> float:
        """Empirical probability of V on one wing."""
        if wing is Wing.A:
            return self.frequencies[0] + self.frequencies[1]
        return self.frequencies[0] + self.frequencies[2]


@dataclass(frozen=True)
class NoSignalDelta:
    """Marginal difference between two pairs sharing a local setting."""

    wing: str
    local_angle_deg: float
    remote_angle_deg: float
    remote_angle_alt_deg: float
    delta: float
    z_statistic: float


@dataclass(frozen=True)
class ReportBundle:
    model: str
    seed: int
    pairs: tuple[PairStatistics, ...]
    chsh: float | None
    chsh_stderr: float | None
    no_signal_deltas: tuple[NoSignalDelta, ...]
    #: Optional analytic condition reports (JSON-ready dicts) attached to
    #: the empirical run, e.g. the locality checkers for the same model.
    condition_reports: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "seed": self.seed,
            "pairs": [
                {
                    "pair_index": p.pair_index,
                    "a_deg": p.a_deg,
                    "b_deg": p.b_deg,
                    "n": p.n,
                    "counts": list(p.counts),
                    "frequencies": list(p.frequencies),
                    "E": p.correlation,
                    "E_stderr": p.correlation_stderr,
                }
                for p in self.pairs
            ],
            "chsh": self.chsh,
            "chsh_stderr": self.chsh_stderr,
            "no_signal_deltas": [
                {
                    "wing": d.wing,
                    "local_angle_deg": d.local_angle_deg,
                    "remote_angle_deg": d.remote_angle_deg,
                    "remote_angle_alt_deg": d.remote_angle_alt_deg,
                    "delta": d.delta,
                    "z_statistic": d.z_statistic,
                }
                for d in self.no_signal_deltas
            ],
            "condition_reports": list(self.condition_reports),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReportBundle":
        return cls(
            model=data["model"],
            seed=data["seed"],
            pairs=tuple(
                PairStatistics(
                    pair_index=p["pair_index"],
                    a_deg=p["a_deg"],
                    b_deg=p["b_deg"],
                    n=p["n"],
                    counts=tuple(p["counts"]),
                    frequencies=tuple(p["frequencies"]),
                    correlation=p["E"],
                    correlation_stderr=p["E_stderr"],
                )
                for p in data["pairs"]
            ),
            chsh=data["chsh"],
            chsh_stderr=data["chsh_stderr"],
            no_signal_deltas=tuple(
                NoSignalDelta(
                    wing=d["wing"],
                    local_angle_deg=d["local_angle_deg"],
                    remote_angle_deg=d["remote_angle_deg"],
                    remote_angle_alt_deg=d["remote_angle_alt_deg"],
                    delta=d["delta"],
                    z_statistic=d["z_statistic"],
                )
                for d in data["no_signal_deltas"]
            ),
            condition_reports=tuple(data.get("condition_reports", ())),
        )


def _pair_statistics(pair: PairSamples) -> PairStatistics:
    n = pair.n
    a_v = pair.signs_a == 1
    b_v = pair.signs_b == 1
    counts = (
        int(np.count_nonzero(a_v & b_v)),
        int(np.count_nonzero(a_v & ~b_v)),
        int(np.count_nonzero(~a_v & b_v)),
        int(np.count_nonzero(~a_v & ~b_v)),
    )
    frequencies = tuple(c / n for c in counts)
    correlation = (counts[0] + counts[3] - counts[1] - counts[2]) / n
    variance = max(1.0 - correlation * correlation, 0.0)
    stderr = math.sqrt(variance / n)
    return PairStatistics(
        pair_index=pair.pair_index,
        a_deg=pair.a.degrees,
        b_deg=pair.b.degrees,
        n=n,
        counts=counts,
        frequencies=frequencies,
        correlation=correlation,
        correlation_stderr=stderr,
    )


def _binomial_stderr(freq: float, n: int) -> float:
    return math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def _no_signal_deltas(stats: Sequence[PairStatistics]) -> tuple[NoSignalDelta, ...]:
    deltas = []
    for wing, local_of, remote_of in (
        ("A", lambda s: s.a_deg, lambda s: s.b_deg),
        ("B", lambda s: s.b_deg, lambda s: s.a_deg),
    ):
        for i, first in enumerate(stats):
            for second in stats[i + 1 :]:
                if local_of(first) != local_of(second):
                    continue
                if remote_of(first) == remote_of(second):
                    continue
                wing_enum = Wing.A if wing == "A" else Wing.B
                f1 = first.wing_frequency(wing_enum)
                f2 = second.wing_frequency(wing_enum)
                delta = abs(f1 - f2)
                spread = math.hypot(
                    _binomial_stderr(f1, first.n), _binomial_stderr(f2, second.n)
                )
                z = delta / spread if spread > 0.0 else (0.0 if delta == 0.0 else math.inf)
                deltas.append(
                    NoSignalDelta(
                        wing=wing,
                        local_angle_deg=local_of(first),
                        remote_angle_deg=remote_of(first),
                        remote_angle_alt_deg=remote_of(second),
                        delta=delta,
                        z_statistic=z,
                    )
                )
    return tuple(deltas)


def empirical_statistics(log: TrialLog, condition_reports: tuple = ()) -> ReportBundle:
    """Plug-in frequency estimates for every report field.

    The CHSH combination E1 + E2 + E3 - E4 and its propagated standard
    error are filled in only for four-pair schedules.
    ``condition_reports`` (JSON-ready dicts) are attached verbatim.
    """
    if not log.pairs:
        raise ValueError("trial log is empty")
    stats = tuple(_pair_statistics(pair) for pair in log.pairs)
    chsh_value = None
    chsh_stderr = None
    if len(stats) == 4:
        chsh_value = (
            stats[0].correlation
            + stats[1].correlation
            + stats[2].correlation
            - stats[3].correlation
        )
        chsh_stderr = math.sqrt(sum(s.correlation_stderr**2 for s in stats))
    return ReportBundle(
        model=log.config.model,
        seed=log.config.seed,
        pairs=stats,
        chsh=chsh_value,
        chsh_stderr=chsh_stderr,
        no_signal_deltas=_no_signal_deltas(stats),
        condition_reports=tuple(condition_reports),
    )


# -- emission ------------------------------------------------------------------


def render_report(bundle: ReportBundle, format: str) -> str:
    """Deterministic textual form of a report."""
    if format == "json":
        return json.dumps(bundle.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    lines = [",".join(CSV_COLUMNS)]
    for p in bundle.pairs:
        lines.append(
            ",".join(
                [
                    str(p.pair_index),
                    repr(p.a_deg),
                    repr(p.b_deg),
                    str(p.n),
                    *(repr(f) for f in p.frequencies),
                    repr(p.correlation),
                    repr(p.correlation_stderr),
                ]
            )
        )
    if bundle.chsh is not None:
        lines.append(
            ",".join(["CHSH", "", "", "", "", "", "", "", repr(bundle.chsh), repr(bundle.chsh_stderr)])
        )
    return "\n".join(lines) + "\n"


def emit_report(bundle: ReportBundle, format: str, path: str) -> None:
    text = render_report(bundle, format)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed to write report to {path!r}: {exc}") from exc


def write_trial_log(log: TrialLog, path: str) -> None:
    """Stream the log as JSON lines, one object per trial."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            for record in log.records():
                handle.write(
                    json.dumps(
                        {
                            "pair": record.pair_index,
                            "trial": record.trial_index,
                            "a_deg": record.a.degrees,
                            "b_deg": record.b.degrees,
                            "A": record.outcome_a.value,
                            "B": record.outcome_b.value,
                            **(
                                {"coordinates": record.coordinates}
                                if record.coordinates is not None
                                else {}
                            ),
                        },
                        sort_keys=True,
                    )
                )
                handle.write("\n")
    except OSError as exc:
        raise OSError(f"failed to write trial log to {path!r}: {exc}") from exc
