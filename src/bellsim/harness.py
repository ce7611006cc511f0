"""Monte Carlo trial runner, empirical statistics and report emission.

A ``RunConfig`` is the whole description of a run: ``run_trials(config)``
takes ``MODELS[config.model]`` and reads ``config.scenario``
through ``spacetime.load_scenario``. ``simulate(config)`` is the one run
pipeline, the one ``bellsim simulate`` calls: it samples, takes the
statistics, and writes the trial log and then the report to the files
the config names, so a config has one report whichever entry point runs
it. A run does only the work its outputs show. The plug-in statistics
(pair frequencies, CHSH, no-signalling deltas) come from one private
helper; only a JSON report prints the model's four ``ConditionReport``
records, so only a JSON run sweeps them, over the run's own grid table
(``empirical_statistics``), and a CSV run's bundle carries none.
``bellsim chsh --trials`` takes the plug-in statistics alone. In the CLI
a bad config, like every bad input, parse errors included, ends in one
``error:`` line.

Sampling is reproducible to the bit under any execution plan. Each
(seed, pair) gets one Philox counter-based generator, and trial i
consumes exactly the two uniforms at stream positions 2i and 2i + 1:
one to pick a hidden-variable node from the model prior, one to pick
the joint outcome cell. A pair's chunks are drawn from its generator
in turn, which gives the words of one long draw whatever the chunk
size. Whole pairs go round-robin to ``workers`` shares: the caller's
thread fills the first and one stdlib ``threading`` thread fills each
other, and the first exception a share raises is raised again in the
caller once every thread has been joined. By default a run whose pairs
span more than one chunk takes one share per pair, up to the usable
cores, and a shorter run takes one share, because starting a thread
costs more than it saves there.

The sampler compares integers. ``Generator.random()`` on Philox returns
exactly ``(raw >> 11) * 2**-53`` for a raw 64-bit word, so each uniform is
a 53-bit integer k, and u >= c holds exactly when k >= ceil(c * 2**53).
The cumulative prior becomes such ``uint64`` thresholds once per model,
in the lambda guide the model builds with its weights, and the
per-lambda cumulative cells of every scheduled pair, gathered from the
run's one ``schedule_grid`` table in one indexing step, in one call; a
trial's cell is the number of its lambda's three cumulative-cell
thresholds that k reaches. The lambda index is the cumulative prior's
inverse, ``searchsorted(prior, u, "right")`` clipped
to the last node, found through that guide table over the top bits of k
(Chen & Asau 1974; Devroye 1986, section III.2.4) and a binary search of
a few vectorised steps over the widest bucket. Every comparison is the float one's, so
the cells are those of ``random()``, ``searchsorted`` and
``cells >= cumulative`` to the bit. A one-lambda model (``qm``,
``fixture``) has no guide and never reads its lambda words: only the
cell words are shifted, into one contiguous array compared with the
pair's three scalar thresholds. Models with more lambda values shift the
whole buffer in place and compare on its odd words. Every run of a
process reads the one model ``MODELS`` keeps for its name, built at
import, so the ``lhv`` guide is built once and a run on the grid the
model holds reuses its kept table.

A pair's trials are stored as one ``uint8`` array of joint outcome
cells, cell = 2 * index_A + index_B with V = 0 and H = 1, so 0..3 are
VV, VH, HV and HH: the order of a model table's last two axes and of the
report's ``f_VV..f_HH`` columns. Statistics count these cells and the
trial log is written from them without a Python loop over trials: a
line is its cell's pre-encoded head and its trial index, so lines of
equal index width form an array of fixed-width (head, tail) records
whose bytes go to the file in blocks of bounded size.
"""

from __future__ import annotations

import json
import math
import os
import stat
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import IO, Iterator, Sequence

import numpy as np

from .hidden_variables import builtin_vector_model
from .locality import (
    _UNIFORM_BITS,
    ConditionReport,
    ProbabilityModel,
    _LambdaGuide,
    _thresholds,
    check_factorizability,
    check_no_signalling,
    check_outcome_independence,
    check_parameter_independence,
    quantum_model,
    signalling_fixture_model,
)
from .quantum import AngleLike, AnalyzerAngle, Wing, as_angle
from .spacetime import load_scenario

DEFAULT_SEED = 0

#: The four (a, b) pairs whose correlations enter E1 + E2 + E3 - E4 at
#: the angles where the entangled pair reaches 2*sqrt(2).
CHSH_OPTIMAL_QUADRUPLE = (0.0, 45.0, 22.5, -22.5)

#: The model each run name reads, built once at import. A model is
#: immutable apart from its one-grid table slot, keyed by the normalized
#: grid, so every run and command of a process shares it.
MODELS = {"qm": quantum_model(), "lhv": builtin_vector_model(), "fixture": signalling_fixture_model()}

_FREQUENCY_COLUMNS = ("f_VV", "f_VH", "f_HV", "f_HH")

#: Column order of the CSV report: ``PairStatistics`` fields with the
#: frequencies spread over ``f_VV..f_HH``. One trailing summary row carries
#: the CHSH combination in the E / E_stderr columns with pair_index "CHSH".
CSV_COLUMNS = ("pair_index", "a_deg", "b_deg", "n", *_FREQUENCY_COLUMNS, "E", "E_stderr")


def chsh_schedule(
    a: AngleLike, a_prime: AngleLike, b: AngleLike, b_prime: AngleLike
) -> tuple[tuple[AnalyzerAngle, AnalyzerAngle], ...]:
    """Pair schedule ((a,b), (a,b'), (a',b), (a',b')) for a CHSH run."""
    aa, ap, bb, bp = (as_angle(x) for x in (a, a_prime, b, b_prime))
    return ((aa, bb), (aa, bp), (ap, bb), (ap, bp))


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run depends on. The fields, with their
    defaults, are the keys of a JSON run config. ``scenario`` is a
    ``load_scenario`` spec whose outcome events give the trial log its
    coordinates. The trial log and the report must go to different files."""

    model: str
    schedule: tuple[tuple[AnalyzerAngle, AnalyzerAngle], ...] = chsh_schedule(
        *CHSH_OPTIMAL_QUADRUPLE
    )
    trials: int = 1000
    seed: int = DEFAULT_SEED
    trial_log_path: str | None = None
    report_path: str | None = None
    report_format: str = "json"
    scenario: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {sorted(MODELS)}")
        schedule = tuple((as_angle(a), as_angle(b)) for a, b in self.schedule)
        if not schedule:
            raise ValueError("angle schedule must be nonempty")
        object.__setattr__(self, "schedule", schedule)
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed!r}")
        for name in ("trial_log_path", "report_path", "scenario"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or None, got {value!r}")
        if self.report_format not in ("json", "csv"):
            raise ValueError(f"report format must be json or csv, got {self.report_format!r}")
        log_path, report_path = self.trial_log_path, self.report_path
        if log_path and report_path and os.path.abspath(log_path) == os.path.abspath(report_path):
            raise ValueError(
                f"trial_log_path and report_path name the same file {report_path!r}"
            )

    def to_json_dict(self) -> dict:
        """The fields, with the schedule as ``[a_deg, b_deg]`` pairs."""
        data = dict(vars(self))
        data["schedule"] = [[a.degrees, b.degrees] for a, b in self.schedule]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        """Parse a config object: ``model`` is required, keys that are not
        fields are rejected, and a missing key or the schedule
        ``"chsh-optimal"`` takes the default."""
        if not isinstance(data, dict) or "model" not in data:
            raise ValueError("config must be a JSON object with the required key 'model'")
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; expected keys from {keys}")
        values = dict(data)
        schedule = values.pop("schedule", "chsh-optimal")
        if schedule != "chsh-optimal":
            if not (isinstance(schedule, list) and all(isinstance(p, list) and len(p) == 2 for p in schedule)):
                raise ValueError(f"schedule must be 'chsh-optimal' or [a, b] pairs, got {schedule!r}")
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for p in schedule for x in p):
                raise ValueError(f"schedule angles must be numbers, got {schedule!r}")
            values["schedule"] = tuple(map(tuple, schedule))
        return cls(**values)


#: +/-1 sign of each cell's outcome on wing A and on wing B (V = +1).
_SIGN_A = np.array([1, 1, -1, -1], dtype=np.int8)
_SIGN_B = np.array([1, -1, 1, -1], dtype=np.int8)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PairSamples:
    """All trials of one scheduled pair, as one read-only array of joint
    outcome cells (0..3 = VV, VH, HV, HH)."""

    pair_index: int
    a: AnalyzerAngle
    b: AnalyzerAngle
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.dtype.kind not in "iu" or cells.ndim != 1:
            raise ValueError(
                f"cells must be a 1-D integer array, got dtype {cells.dtype} "
                f"with shape {cells.shape}"
            )
        if cells.size and not (cells.min() >= 0 and cells.max() <= 3):
            raise ValueError("cells must lie in 0..3 (VV, VH, HV, HH)")
        object.__setattr__(self, "cells", _read_only(cells.astype(np.uint8, copy=False)))

    @property
    def n(self) -> int:
        return int(self.cells.size)

    @property
    def signs_a(self) -> np.ndarray:
        """Wing A outcomes as +1 (V) / -1 (H), a read-only ``int8`` array."""
        return _read_only(_SIGN_A[self.cells])

    @property
    def signs_b(self) -> np.ndarray:
        """Wing B outcomes as +1 (V) / -1 (H), a read-only ``int8`` array."""
        return _read_only(_SIGN_B[self.cells])


@dataclass(frozen=True, eq=False)
class TrialLog:
    """A run's samples, with the model ``run_trials`` read them from."""

    config: RunConfig
    model: ProbabilityModel
    pairs: tuple[PairSamples, ...]
    outcome_coordinates: dict | None = None


def schedule_grid(schedule: Sequence[tuple[AnalyzerAngle, AnalyzerAngle]]) -> tuple[float, ...]:
    """The schedule's distinct angles in degrees, sorted: the grid whose
    one table a run samples from and its condition reports sweep."""
    return tuple(sorted({angle.degrees for pair in schedule for angle in pair}))


#: The low bits of a raw Philox word that its 53-bit uniform drops.
_LOW_BITS = np.uint64(64 - _UNIFORM_BITS)


def _lambda_index(guide: _LambdaGuide, k: np.ndarray) -> np.ndarray:
    """``min(searchsorted(T, k, "right"), n - 1)`` for the prior's
    thresholds T: the guide table's bucket start, then a binary search
    over the widest bucket's span."""
    lam = guide.start[k >> guide.shift]
    for step in guide.steps:
        # prior[step - 1:][lam] is prior[lam + step - 1] without a temporary
        lam += (guide.prior[step - 1 :][lam] <= k) * step
    return lam


def _cell_thresholds(table: np.ndarray, a_rows: Sequence[int], b_rows: Sequence[int]) -> np.ndarray:
    """Thresholds of the cumulative VV, VH and HV cells of the table
    entries ``table[a_rows[p], b_rows[p]]`` of a ``[a, b, n_lambda, 2, 2]``
    table: ``[pair, 3, n_lambda]``, one ``uint64`` row per cumulative cell
    and one column per lambda. One indexing step copies those three cells
    of every pair, and never the HH cell, into one array that is summed
    and thresholded in place: for 2,048 lambda values a copy of whole entries
    and separate sums and stacks cost more in fresh memory pages than
    the arithmetic itself."""
    cumulative = table[np.c_[a_rows], np.c_[b_rows], :, (0, 0, 1), (0, 1, 0)]
    # cumulative sums, added in the order cumsum adds them
    np.add(cumulative[:, 0], cumulative[:, 1], out=cumulative[:, 1])
    np.add(cumulative[:, 1], cumulative[:, 2], out=cumulative[:, 2])
    return _thresholds(cumulative)


def _sample_chunk(
    bitgen: np.random.Philox, count: int, guide: _LambdaGuide | None, thresholds: np.ndarray
) -> np.ndarray:
    """Joint outcome cells of the next ``count`` trials of ``bitgen``'s
    stream as a ``uint8`` array, from the prior's guide and the pair's
    ``_cell_thresholds``. ``guide`` is None for a one-lambda model, which
    consumes its lambda word unread."""
    raw = bitgen.random_raw(2 * count)
    if guide is None:
        # only the cell words are read: shift them into one contiguous array
        k_cell = raw[1::2] >> _LOW_BITS
        vv, vh, hv = thresholds[:, 0]
    else:
        raw >>= _LOW_BITS
        vv, vh, hv = thresholds.take(_lambda_index(guide, raw[0::2]), axis=1)
        k_cell = raw[1::2]
    out = (k_cell >= vv).view(np.uint8)
    out += (k_cell >= vh).view(np.uint8)
    out += (k_cell >= hv).view(np.uint8)
    return out


def _fill_on_threads(fill, pairs: int, workers: int) -> None:
    """``fill`` every pair, share t taking pairs t, t + workers, ...: the
    calling thread fills share 0 and starts one thread for each other
    share. Once every thread has been joined, the first exception a
    share raised, the caller's own included, is raised again."""
    errors: list[BaseException] = []

    def work(share):
        try:
            for pair_index in share:
                fill(pair_index)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(range(t, pairs, workers),)) for t in range(1, min(workers, pairs))
    ]
    for thread in threads:
        thread.start()
    work(range(0, pairs, workers))
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_trials(config: RunConfig, *, workers: int | None = None, chunk_size: int = 65536) -> TrialLog:
    """Sample the configured schedule from the configured model.

    ``workers`` and ``chunk_size``, integers >= 1, only choose an
    execution plan (``chunk_size`` trials per draw from a pair's one
    generator, whole pairs on up to ``workers`` threads, the caller's
    included); the returned log is bit-identical for every choice.
    ``workers=None`` takes one worker per pair, up to the usable cores,
    when a pair spans more than one chunk, and one worker otherwise,
    where starting a thread costs more than it saves. When the config
    names a scenario, it is read before any trial is sampled and its
    outcome event coordinates are attached to the log.
    """
    for name, value in (("workers", 1 if workers is None else workers), ("chunk_size", chunk_size)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if workers is None:  # one share per usable core; _fill_on_threads makes at most one per pair
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = cores if config.trials > chunk_size else 1
    scenario = None if config.scenario is None else load_scenario(config.scenario)
    model = MODELS[config.model]
    grid = schedule_grid(config.schedule)
    row = {degrees: i for i, degrees in enumerate(grid)}
    a_rows, b_rows = ([row[angle.degrees] for angle in side] for side in zip(*config.schedule))
    all_thresholds = _cell_thresholds(model.table(grid), a_rows, b_rows)
    n, chunk = config.trials, int(chunk_size)
    cells = [np.empty(n, dtype=np.uint8) for _ in config.schedule]

    def fill(pair_index):
        bitgen = np.random.Philox(key=np.array([config.seed, pair_index], dtype=np.uint64))
        out, thresholds = cells[pair_index], all_thresholds[pair_index]
        for lo in range(0, n, chunk):
            out[lo : lo + chunk] = _sample_chunk(bitgen, min(chunk, n - lo), model._guide, thresholds)

    _fill_on_threads(fill, len(cells), workers)
    pairs = tuple(PairSamples(i, a, b, c) for i, ((a, b), c) in enumerate(zip(config.schedule, cells)))
    coordinates = None
    if scenario is not None:
        coordinates = {}
        for wing in (Wing.A, Wing.B):
            outcome = scenario.outcome_event(wing)
            if outcome is not None:
                coordinates[wing.value] = {"t": outcome.point.t, "x": outcome.point.x}
    return TrialLog(config, model, pairs, coordinates)


# -- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class PairStatistics:
    pair_index: int
    a_deg: float
    b_deg: float
    n: int
    counts: tuple[int, int, int, int]
    frequencies: tuple[float, float, float, float]
    E: float
    E_stderr: float


@dataclass(frozen=True)
class NoSignalDelta:
    """Marginal difference between two pairs sharing a local setting.
    ``z_statistic`` is None when both plug-in stderrs are 0 and the gap is
    not, so the JSON report stays strict JSON."""

    wing: str
    local_angle_deg: float
    remote_angle_deg: float
    remote_angle_alt_deg: float
    delta: float
    z_statistic: float | None


@dataclass(frozen=True)
class ReportBundle:
    model: str
    seed: int
    pairs: tuple[PairStatistics, ...]
    chsh: float | None
    chsh_stderr: float | None
    no_signal_deltas: tuple[NoSignalDelta, ...]
    #: The run model's four analytic condition reports, in the order
    #: ``empirical_statistics`` computes them; ``()`` for a CSV run of
    #: ``simulate``, whose report does not show them.
    condition_reports: tuple[ConditionReport, ...]

    def to_json_dict(self) -> dict:
        """The fields as a new dict, each pair and delta as a copy of its
        own fields and each condition report as its ``to_json_dict()``."""
        data = dict(vars(self))
        data["pairs"] = [dict(vars(p)) for p in self.pairs]
        data["no_signal_deltas"] = [dict(vars(d)) for d in self.no_signal_deltas]
        data["condition_reports"] = [r.to_json_dict() for r in self.condition_reports]
        return data


def _pair_statistics(pair: PairSamples) -> PairStatistics:
    n = pair.n
    counts = tuple(int(np.count_nonzero(pair.cells == c)) for c in range(4))
    frequencies = tuple(c / n for c in counts)
    correlation = (counts[0] + counts[3] - counts[1] - counts[2]) / n
    stderr = math.sqrt(max(1.0 - correlation * correlation, 0.0) / n)
    return PairStatistics(
        pair.pair_index, pair.a.degrees, pair.b.degrees, n, counts, frequencies, correlation, stderr
    )


def _binomial_stderr(freq: float, n: int) -> float:
    return math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def _no_signal_deltas(stats: Sequence[PairStatistics]) -> tuple[NoSignalDelta, ...]:
    """Marginal differences between pairs that share one wing's setting.

    Each wing sees a pair as (local angle, remote angle, frequency of V on
    this wing, n); pairs with the same local and different remote angles
    are compared.
    """
    wing_views = (
        ("A", [(s.a_deg, s.b_deg, s.frequencies[0] + s.frequencies[1], s.n) for s in stats]),
        ("B", [(s.b_deg, s.a_deg, s.frequencies[0] + s.frequencies[2], s.n) for s in stats]),
    )
    deltas = []
    for wing, views in wing_views:
        for i, (local, remote, f1, n1) in enumerate(views):
            for other_local, other_remote, f2, n2 in views[i + 1 :]:
                if other_local != local or other_remote == remote:
                    continue
                delta = abs(f1 - f2)
                spread = math.hypot(_binomial_stderr(f1, n1), _binomial_stderr(f2, n2))
                z = delta / spread if spread > 0.0 else (0.0 if delta == 0.0 else None)
                deltas.append(NoSignalDelta(wing, local, remote, other_remote, delta, z))
    return tuple(deltas)


def _plug_in_statistics(log: TrialLog) -> ReportBundle:
    """The report's plug-in part, with no condition reports: each pair's
    frequency estimates, the no-signalling deltas and, for four-pair
    schedules only, the CHSH combination E1 + E2 + E3 - E4 and its
    propagated standard error."""
    if not log.pairs:
        raise ValueError("trial log is empty")
    stats = tuple(_pair_statistics(pair) for pair in log.pairs)
    chsh_value = None
    chsh_stderr = None
    if len(stats) == 4:
        chsh_value = stats[0].E + stats[1].E + stats[2].E - stats[3].E
        chsh_stderr = math.sqrt(sum(s.E_stderr**2 for s in stats))
    return ReportBundle(
        model=log.config.model,
        seed=log.config.seed,
        pairs=stats,
        chsh=chsh_value,
        chsh_stderr=chsh_stderr,
        no_signal_deltas=_no_signal_deltas(stats),
        condition_reports=(),
    )


def empirical_statistics(log: TrialLog) -> ReportBundle:
    """Plug-in frequency estimates for every report field, and the log
    model's four ``ConditionReport`` records over ``schedule_grid``, swept
    on the table the run read.

    The CHSH combination E1 + E2 + E3 - E4 and its propagated standard
    error are filled in only for four-pair schedules.
    """
    bundle = _plug_in_statistics(log)
    grid = schedule_grid(log.config.schedule)
    checks = (check_parameter_independence, check_outcome_independence,
              check_factorizability, check_no_signalling)
    return replace(bundle, condition_reports=tuple(check(log.model, grid) for check in checks))


def simulate(config: RunConfig) -> ReportBundle:
    """Run ``config`` end to end and return its report: sample, take the
    statistics, then write the trial log and the report, each only when
    the config names its file.

    Only a JSON report prints the four condition reports, so only a
    ``report_format == "json"`` run sweeps them (``empirical_statistics``);
    a CSV run takes the plug-in statistics alone, and its bundle's
    ``condition_reports`` is ``()``."""
    log = run_trials(config)
    if config.report_format == "json":
        bundle = empirical_statistics(log)
    else:
        bundle = _plug_in_statistics(log)
    if config.trial_log_path:
        write_trial_log(log, config.trial_log_path)
    if config.report_path:
        emit_report(bundle, config.report_format, config.report_path)
    return bundle


# -- emission ------------------------------------------------------------------


def render_report(bundle: ReportBundle, format: str) -> str:
    """Deterministic textual form of a report."""
    if format == "json":
        return json.dumps(bundle.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    lines = [",".join(CSV_COLUMNS)]
    for p in bundle.pairs:
        row = {**vars(p), **dict(zip(_FREQUENCY_COLUMNS, p.frequencies))}
        lines.append(",".join(repr(row[c]) for c in CSV_COLUMNS))
    if bundle.chsh is not None:
        lines.append(",".join(["CHSH", *[""] * 7, repr(bundle.chsh), repr(bundle.chsh_stderr)]))
    return "\n".join(lines) + "\n"


def _open_untruncated(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _overwritten(path: str, what: str, mode: str, **kwargs) -> Iterator[IO]:
    """``open(path, mode, **kwargs)`` for writing, without truncating the
    file first: truncating a file that holds data frees its blocks, and
    on ext4 the next write then waits for the replacement's writeback.
    On the way out, also when a write raised, a regular file is cut at
    the handle's position, so it holds exactly what was written, as after
    a fresh write; devices and pipes are left as they are. An ``OSError``
    becomes one ``failed to write <what> to '<path>'`` error."""
    try:
        with open(path, mode, opener=_open_untruncated, **kwargs) as handle:
            try:
                yield handle
            finally:
                if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                    handle.truncate()
    except OSError as exc:
        raise OSError(f"failed to write {what} to {path!r}: {exc}") from exc


def emit_report(bundle: ReportBundle, format: str, path: str) -> None:
    """Write ``render_report(bundle, format)`` to ``path``, overwriting an
    existing file in place and cutting it to the report's length, also
    after a failed write; only a process killed mid-write can leave old
    bytes after the new ones."""
    text = render_report(bundle, format)
    with _overwritten(path, "report", "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


#: Trial log lines the writer fills and writes at a time, about 1.2 MB with
#: scenario coordinates, so its memory does not grow with the trial count.
_LOG_BLOCK_LINES = 8192


def write_trial_log(log: TrialLog, path: str) -> None:
    """Write the log as JSON lines, one object per trial, keys sorted.

    Within a pair a line depends only on its cell and its trial index,
    and ``trial`` sorts last, so a line is its cell's head, then its
    tail: the index's decimal digits and ``}\\n``. The four heads of a
    pair are encoded once and have one width, so trials whose indices
    have the same number of digits have lines of one width. Such a run
    of trials goes to the file in blocks of at most ``_LOG_BLOCK_LINES``
    lines, each one array of (head, tail) ``np.void`` records, its heads
    gathered by cell, written in one call. Every pair numbers its trials
    from 0, so the tails of the blocks that start within the first
    ``_LOG_BLOCK_LINES`` trials are slices of ``_SHARED_TAILS``, built at
    import; later blocks build theirs, which keeps memory bounded.

    An existing file is overwritten in place and cut to the log's length,
    also after a failed write, which leaves only the lines written before
    it; only a process killed mid-write can leave old lines after the new
    ones.
    """
    with _overwritten(path, "trial log", "wb") as handle:
        for pair in log.pairs:
            heads = _trial_line_heads(log, pair)
            for start, stop, digits in _log_blocks(pair.n):
                if start < _LOG_BLOCK_LINES:
                    tails = _SHARED_TAILS[digits - 1][: stop - start]
                else:
                    tails = _line_tails(start, stop, digits)
                block = np.empty(stop - start, dtype=[("head", heads.dtype), ("tail", tails.dtype)])
                block["head"] = heads[pair.cells[start:stop]]
                block["tail"] = tails
                handle.write(block)


def _log_blocks(trials: int) -> Iterator[tuple[int, int, int]]:
    """(start, stop, digits) spans covering trial indices 0..trials-1:
    within a span every index has ``digits`` decimal digits, and no span
    holds more than ``_LOG_BLOCK_LINES`` trials."""
    digits, low = 1, 0
    while low < trials:
        high = min(10**digits, trials)
        for start in range(low, high, _LOG_BLOCK_LINES):
            yield start, min(start + _LOG_BLOCK_LINES, high), digits
        digits, low = digits + 1, high


def _line_tails(start: int, stop: int, digits: int) -> np.ndarray:
    """The ASCII ends ``<index>}\\n`` of trial lines start..stop-1, whose
    indices all have ``digits`` digits, as a read-only array of ``np.void``
    records of ``digits + 2`` bytes."""
    tails = np.empty((stop - start, digits + 2), dtype=np.uint8)
    index = np.arange(start, stop)
    for column in range(digits - 1, -1, -1):
        tails[:, column] = index % 10 + ord("0")
        index //= 10
    tails[:, digits:] = np.frombuffer(b"}\n", dtype=np.uint8)
    return _read_only(tails.view(f"V{digits + 2}").reshape(-1))


#: Tails of the first block of each digit group that starts below
#: ``_LOG_BLOCK_LINES``, by digit count: no other block starts there, and a
#: pair's block is a prefix of its group's (indices 0..9191, about 54 KB).
_SHARED_TAILS = tuple(
    _line_tails(start, stop, digits)
    for start, stop, digits in _log_blocks(2 * _LOG_BLOCK_LINES)
    if start < _LOG_BLOCK_LINES
)

#: Each cell's line start: ``"A"`` and ``"B"`` sort before every other key.
_CELL_HEADS = tuple(f'{{"A": "{a}", "B": "{b}", '.encode("ascii") for a in "VH" for b in "VH")


def _trial_line_heads(log: TrialLog, pair: PairSamples) -> np.ndarray:
    """The lines of this pair's four cells up to the trial index, as four
    ASCII ``np.void`` records of one width. The fields after ``"A"`` and
    ``"B"`` are encoded once; those two take one character each."""
    fields = {
        "pair": pair.pair_index,
        "trial": 0,
        "a_deg": pair.a.degrees,
        "b_deg": pair.b.degrees,
    }
    if log.outcome_coordinates is not None:
        fields["coordinates"] = log.outcome_coordinates
    rest = json.dumps(fields, sort_keys=True)[1 : -len("0}")].encode("ascii")  # "trial" sorts last
    heads = [head + rest for head in _CELL_HEADS]
    return np.frombuffer(b"".join(heads), dtype=f"V{len(heads[0])}")
