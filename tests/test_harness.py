import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import harness, locality
from bellsim.harness import (
    CHSH_OPTIMAL_QUADRUPLE,
    CSV_COLUMNS,
    MODELS,
    PairSamples,
    RunConfig,
    _LOG_BLOCK_LINES,
    _cell_thresholds,
    _lambda_index,
    _sample_chunk,
    chsh_schedule,
    emit_report,
    empirical_statistics,
    render_report,
    run_trials,
    schedule_grid,
    write_trial_log,
)
from bellsim.cli import main
from bellsim.hidden_variables import builtin_vector_model, strategy_model
from bellsim.locality import (
    ConditionReport,
    ProbabilityModel,
    _lambda_guide,
    _thresholds,
    check_factorizability,
    check_no_signalling,
    check_outcome_independence,
    check_parameter_independence,
    quantum_model,
    signalling_fixture_model,
)
from bellsim.quantum import PhotonPairState, as_angle, bell_phi_plus, born_joint
from bellsim.spacetime import Scenario, SpacetimePoint, standard_scenario

from strategies import density_matrices

OPTIMAL_SCHEDULE = chsh_schedule(*CHSH_OPTIMAL_QUADRUPLE)

#: A builder of a new model for each name in ``MODELS``.
FRESH_MODELS = {"qm": quantum_model, "lhv": builtin_vector_model, "fixture": signalling_fixture_model}


def config(model="qm", trials=1000, seed=11, schedule=OPTIMAL_SCHEDULE, **kw):
    return RunConfig(model=model, schedule=schedule, trials=trials, seed=seed, **kw)


def philox(seed, pair_index):
    """A pair's generator, at the start of its stream."""
    return np.random.Philox(key=np.array([seed, pair_index], dtype=np.uint64))


def philox_key(bitgen):
    """The (seed, pair_index) key of a pair's generator."""
    return tuple(int(word) for word in bitgen.state["state"]["key"])


class TestRunConfig:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            config(trials=0)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            config(schedule=())

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            config(model="oracle")

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError, match="seed"):
            config(seed=2**64)

    def test_json_round_trip(self):
        cfg = config(trials=50, seed=99)
        assert RunConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_named_schedule(self):
        cfg = RunConfig.from_json_dict({"model": "qm", "schedule": "chsh-optimal"})
        assert cfg.schedule == OPTIMAL_SCHEDULE

    def test_json_round_trip_every_field(self):
        cfg = config(
            model="lhv",
            schedule=((10.0, 37.3), (190.0, -22.5)),
            trials=7,
            seed=2**63,
            trial_log_path="trials.jsonl",
            report_path="report.csv",
            report_format="csv",
        )
        data = json.loads(json.dumps(cfg.to_json_dict()))
        assert RunConfig.from_json_dict(data) == cfg
        assert RunConfig.from_json_dict(data).to_json_dict() == cfg.to_json_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus_key"):
            RunConfig.from_json_dict({"model": "qm", "bogus_key": 1})

    def test_missing_model_rejected(self):
        with pytest.raises(ValueError, match="'model'"):
            RunConfig.from_json_dict({"trials": 10})

    def test_scenario_key_accepted(self):
        cfg = RunConfig.from_json_dict({"model": "qm", "scenario": "overlap"})
        assert cfg.schedule == OPTIMAL_SCHEDULE

    def test_malformed_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            RunConfig.from_json_dict({"model": "qm", "schedule": [[0.0]]})

    @pytest.mark.parametrize("key, value", [
        ("trials", 1.9), ("trials", True), ("trials", "3"), ("trials", None),
        ("seed", 2.5), ("seed", False), ("seed", "7"),
    ])
    def test_non_integer_counts_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            RunConfig.from_json_dict({"model": "qm", key: value})

    def test_numpy_integers_accepted(self):
        cfg = config(trials=np.int64(5), seed=np.uint64(2**63))
        assert (cfg.trials, cfg.seed) == (5, 2**63)
        assert type(cfg.trials) is int and type(cfg.seed) is int

    @pytest.mark.parametrize("key", ["trial_log_path", "report_path"])
    @pytest.mark.parametrize("value", [1, 7.0, True, ["out.json"]])
    def test_non_string_paths_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a string"):
            RunConfig.from_json_dict({"model": "qm", key: value})

    @pytest.mark.parametrize("angle", [True, "0", None, [0.0]])
    def test_non_number_schedule_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="schedule angles must be numbers"):
            RunConfig.from_json_dict({"model": "qm", "schedule": [[0.0, 22.5], [45.0, angle]]})

    def test_defaults_live_on_the_dataclass(self):
        assert RunConfig("qm") == RunConfig.from_json_dict({"model": "qm"})
        assert RunConfig("qm").schedule == OPTIMAL_SCHEDULE
        assert RunConfig("qm").trials == 1000

    def test_config_keys_are_the_fields_and_scenario(self):
        cfg = RunConfig("qm", scenario="overlap")
        assert list(cfg.to_json_dict()) == [f.name for f in dataclasses.fields(RunConfig)]
        assert RunConfig.from_json_dict(cfg.to_json_dict()) == cfg
        with pytest.raises(ValueError, match="expected keys from .*'scenario'"):
            RunConfig.from_json_dict({"model": "qm", "bogus": 1})

    def test_to_json_dict_returns_a_copy(self):
        cfg = config(trials=50, seed=99)
        data = cfg.to_json_dict()
        data["trials"] = 7
        data["schedule"].append([1.0, 2.0])
        data["bogus"] = 1
        assert cfg == config(trials=50, seed=99)
        assert cfg.to_json_dict() == config(trials=50, seed=99).to_json_dict()

    @pytest.mark.parametrize("report_path", ["out.txt", "./out.txt", "sub/../out.txt"])
    def test_log_and_report_on_one_file_rejected(self, report_path):
        with pytest.raises(ValueError, match="same file"):
            config(trial_log_path="out.txt", report_path=report_path)

    def test_log_and_report_on_two_files_accepted(self):
        cfg = config(trial_log_path="out.txt", report_path="sub/out.txt")
        assert (cfg.trial_log_path, cfg.report_path) == ("out.txt", "sub/out.txt")

    def test_unhashable_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            RunConfig.from_json_dict({"model": ["qm"]})


class TestDeterminism:
    def test_identical_configs_bit_identical_logs(self):
        log1 = run_trials(config())
        log2 = run_trials(config())
        for p1, p2 in zip(log1.pairs, log2.pairs):
            assert np.array_equal(p1.signs_a, p2.signs_a)
            assert np.array_equal(p1.signs_b, p2.signs_b)

    @pytest.mark.parametrize("workers,chunk", [(1, 17), (3, 64), (4, 250), (np.int64(2), np.uint16(3))])
    def test_execution_plan_does_not_matter(self, workers, chunk):
        baseline = run_trials(config(trials=3000))
        other = run_trials(config(trials=3000), workers=workers, chunk_size=chunk)
        for p1, p2 in zip(baseline.pairs, other.pairs):
            assert np.array_equal(p1.signs_a, p2.signs_a)
            assert np.array_equal(p1.signs_b, p2.signs_b)

    def test_reports_byte_identical(self):
        r1 = render_report(empirical_statistics(run_trials(config())), "json")
        r2 = render_report(empirical_statistics(run_trials(config(), workers=2)), "json")
        assert r1 == r2

    def test_threads_under_fast_switching(self):
        """More threads than cores, switched every microsecond, each draw
        their own pairs' streams: no chunk is lost, repeated or drawn
        from another pair's generator."""
        baseline = run_trials(config(model="lhv", trials=3000))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            other = run_trials(config(model="lhv", trials=3000), workers=8, chunk_size=64)
        finally:
            sys.setswitchinterval(interval)
        for p1, p2 in zip(baseline.pairs, other.pairs, strict=True):
            assert np.array_equal(p1.cells, p2.cells)

    @pytest.mark.parametrize("failing", [0, 1])  # in the caller's share, in a thread's
    def test_failing_worker_raises_in_the_caller(self, monkeypatch, failing):
        real = harness._sample_chunk
        drawn = []

        def sample(bitgen, count, guide, thresholds):
            _, pair_index = philox_key(bitgen)
            if pair_index == failing:
                raise RuntimeError(f"pair {pair_index} failed")
            time.sleep(0.002)  # the other shares are still drawing when the failure comes
            drawn.append(pair_index)
            return real(bitgen, count, guide, thresholds)

        monkeypatch.setattr(harness, "_sample_chunk", sample)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"pair {failing} failed"):
            run_trials(config(trials=1000), workers=3, chunk_size=100)
        assert threading.active_count() == threads  # every worker was joined
        # shares 0..2 hold pairs {0, 3}, {1} and {2}: the failing share stops,
        # and every other one drew all ten chunks of its pairs before the raise
        assert Counter(drawn) == {p: 10 for p in range(4) if p % 3 != failing % 3}

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("chunk", [1, 7, 300, 1001, 65536])
    def test_one_generator_per_pair(self, monkeypatch, workers, chunk):
        """Every chunk of a pair is drawn from that pair's one generator,
        keyed (seed, pair), and no two pairs share one."""
        draws = []  # keeps every generator alive, so no two share an id
        real = harness._sample_chunk

        def spy(bitgen, count, guide, thresholds):
            draws.append((bitgen, count))
            return real(bitgen, count, guide, thresholds)

        monkeypatch.setattr(harness, "_sample_chunk", spy)
        run_trials(config(trials=1001, seed=5), workers=workers, chunk_size=chunk)
        generators = list({id(bitgen): bitgen for bitgen, _ in draws}.values())
        assert sorted(map(philox_key, generators)) == [(5, p) for p in range(len(OPTIMAL_SCHEDULE))]
        for bitgen in generators:
            counts = [count for other, count in draws if other is bitgen]
            assert sum(counts) == 1001 and len(counts) == -(-1001 // chunk)

    @pytest.mark.parametrize(
        "option,value",
        [("chunk_size", 0), ("chunk_size", -5), ("chunk_size", 2.7), ("chunk_size", True),
         ("chunk_size", "64"), ("chunk_size", None), ("workers", 0), ("workers", -3),
         ("workers", True), ("workers", 2.0), ("workers", np.bool_(True))],
    )
    def test_bad_execution_plan_is_one_error(self, option, value):
        with pytest.raises(ValueError, match=rf"^{option} must be an integer >= 1, got .*$") as caught:
            run_trials(config(trials=10), **{option: value})
        assert "\n" not in str(caught.value)

    def test_import_loads_no_thread_pool(self):
        package_root = os.path.dirname(os.path.dirname(harness.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys, bellsim; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'logging', 'queue')))"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert fresh.stdout == "[]\n"

    def test_different_seeds_differ(self):
        log1 = run_trials(config(seed=1))
        log2 = run_trials(config(seed=2))
        assert any(
            not np.array_equal(p1.signs_a, p2.signs_a)
            for p1, p2 in zip(log1.pairs, log2.pairs)
        )

    def test_pairs_have_independent_streams(self):
        cfg = config(schedule=((0.0, 0.0), (0.0, 0.0)), trials=500)
        log = run_trials(cfg)
        assert not np.array_equal(log.pairs[0].signs_a, log.pairs[1].signs_a)


class TestDefaultPlan:
    """``workers=None`` gives one share per pair, up to the usable cores,
    when a pair spans more than one chunk, and starts no thread otherwise."""

    @pytest.fixture
    def started(self, monkeypatch):
        """The threads ``run_trials`` creates."""
        started = []
        real = threading.Thread

        def spy(*args, **kwargs):
            started.append(real(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(harness.threading, "Thread", spy)
        return started

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    @pytest.mark.parametrize("trials", [100, 101])
    def test_threads_for_multi_chunk_runs_only(self, monkeypatch, started, cores, trials):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        run_trials(config(trials=trials), chunk_size=100)
        assert len(started) == (min(len(OPTIMAL_SCHEDULE), cores) - 1 if trials > 100 else 0)

    @pytest.mark.parametrize("cpu_count,threads", [(3, 2), (None, 0)])
    def test_cpu_count_without_affinity(self, monkeypatch, started, cpu_count, threads):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        run_trials(config(trials=101), chunk_size=100)
        assert len(started) == threads

    @pytest.mark.parametrize("model", ["qm", "lhv"])
    @pytest.mark.parametrize("trials", [65_536, 65_537, 200_001])
    def test_cells_are_the_one_worker_cells(self, monkeypatch, started, model, trials):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = config(model=model, trials=trials)
        planned, single = run_trials(cfg), run_trials(cfg, workers=1)
        assert len(started) == (trials > 65_536)
        for p1, p2 in zip(single.pairs, planned.pairs, strict=True):
            assert np.array_equal(p1.cells, p2.cells)


class TestSampling:
    def test_aligned_settings_perfectly_correlated(self):
        cfg = config(schedule=((13.0, 13.0),), trials=5000, seed=3)
        log = run_trials(cfg)
        assert np.array_equal(log.pairs[0].signs_a, log.pairs[0].signs_b)

    def test_frequencies_near_born_values(self):
        cfg = config(schedule=((0.0, 22.5),), trials=100_000, seed=5)
        stats = empirical_statistics(run_trials(cfg)).pairs[0]
        expected = born_joint(bell_phi_plus(), 0.0, 22.5)
        for freq, target in zip(stats.frequencies, (expected.vv, expected.vh,
                                                    expected.hv, expected.hh)):
            stderr = math.sqrt(target * (1.0 - target) / cfg.trials)
            assert abs(freq - target) < 4.0 * stderr + 1e-12

    def test_lhv_model_sampling(self):
        cfg = config(model="lhv", schedule=((0.0, 45.0),), trials=50_000, seed=8)
        stats = empirical_statistics(run_trials(cfg)).pairs[0]
        # responses flip deterministically 45 degrees apart
        assert stats.E == -1.0

    def test_scenario_coordinates_attached(self, tmp_path):
        log = run_trials(config(trials=5, scenario="late"))
        assert log.outcome_coordinates["A"] == {"t": 6.0, "x": -4.0}
        path = tmp_path / "trials.jsonl"
        write_trial_log(log, str(path))
        first = json.loads(path.read_text().splitlines()[0])
        assert list(first) == ["A", "B", "a_deg", "b_deg", "coordinates", "pair", "trial"]
        assert first["coordinates"] == log.outcome_coordinates
        assert (first["pair"], first["trial"]) == (0, 0)


class TestPairSamples:
    @pytest.mark.parametrize(
        "cells",
        [np.array([0, 3, 4]), np.array([0, -1]), np.array([0.0, 1.0]), np.zeros((2, 2), dtype=int)],
        ids=["cell-4", "negative", "float", "2-D"],
    )
    def test_rejects_bad_cells(self, cells):
        with pytest.raises(ValueError, match="cells"):
            PairSamples(0, as_angle(0.0), as_angle(0.0), cells)

    def test_cells_and_signs_are_read_only(self):
        cells = np.array([0, 1, 2, 3, 3, 1, 0], dtype=np.int64)
        pair = PairSamples(0, as_angle(0.0), as_angle(0.0), cells)
        assert pair.cells.dtype == np.uint8 and not pair.cells.flags.writeable
        assert pair.n == 7
        for signs, expected in (
            (pair.signs_a, 1 - 2 * (cells >> 1)),
            (pair.signs_b, 1 - 2 * (cells & 1)),
        ):
            assert signs.dtype == np.int8
            assert not signs.flags.writeable
            assert np.array_equal(signs, expected)


def per_trial_log(log) -> bytes:
    """Reference trial log: one ``json.dumps`` per trial, built from the signs."""
    label = {1: "V", -1: "H"}
    lines = []
    for pair in log.pairs:
        for i, (sa, sb) in enumerate(zip(pair.signs_a.tolist(), pair.signs_b.tolist())):
            record = {"pair": pair.pair_index, "trial": i, "a_deg": pair.a.degrees,
                      "b_deg": pair.b.degrees, "A": label[sa], "B": label[sb]}
            if log.outcome_coordinates is not None:
                record["coordinates"] = log.outcome_coordinates
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode()


class TestExecutionPlanProperty:
    """Bit-identity under any (workers, chunk_size) plan."""

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(["qm", "lhv"]),
        seed=st.integers(0, 2**64 - 1),
        with_scenario=st.booleans(),
        workers=st.integers(1, 4),
        data=st.data(),
    )
    def test_cells_and_log_bytes_do_not_depend_on_plan(
        self, model, seed, with_scenario, workers, data, tmp_path_factory
    ):
        trials = data.draw(st.integers(1, 5000), label="trials")
        chunk = data.draw(st.integers(1, trials + 3), label="chunk_size")
        cfg = config(model=model, trials=trials, seed=seed, scenario="late" if with_scenario else None)
        single = run_trials(cfg, workers=1, chunk_size=trials)
        planned = run_trials(cfg, workers=workers, chunk_size=chunk)
        for p1, p2 in zip(single.pairs, planned.pairs, strict=True):
            assert np.array_equal(p1.cells, p2.cells)
        out = tmp_path_factory.mktemp("log")
        write_trial_log(single, str(out / "single.jsonl"))
        write_trial_log(planned, str(out / "planned.jsonl"))
        single_bytes = (out / "single.jsonl").read_bytes()
        assert (out / "planned.jsonl").read_bytes() == single_bytes
        assert single_bytes == per_trial_log(single)


#: Trial counts on each side of the index's digit boundaries, and one whose
#: last writer block holds three lines of the 4-digit group the blocks split.
WRITER_EDGE_TRIALS = (1, 9, 10, 11, 99, 100, 101, 9_999, 10_000, 10_001, 1000 + _LOG_BLOCK_LINES + 3)


class TestTrialLogWriter:
    @pytest.mark.parametrize("trials", WRITER_EDGE_TRIALS)
    @pytest.mark.parametrize("scenario", [None, "late"])
    @pytest.mark.parametrize("model", ["qm", "lhv"])
    def test_bytes_are_the_per_trial_reference(self, model, scenario, trials, tmp_path):
        log = run_trials(config(model=model, trials=trials, seed=trials, scenario=scenario))
        path = tmp_path / "trials.jsonl"
        write_trial_log(log, str(path))
        assert path.read_bytes() == per_trial_log(log)

    def test_coordinates_in_exponent_form(self, tmp_path):
        """A scenario moved so that its outcome coordinates are negative,
        non-integer and printed in exponent form."""
        base = standard_scenario(settings_in_overlap=True)
        dt, dx = 1e-07 - 6.0, -4.0 - 2.5e-07

        def moved(point):
            return SpacetimePoint(point.t + dt, point.x + dx)

        scenario = Scenario(
            state=base.state,
            events=tuple(dataclasses.replace(ev, point=moved(ev.point)) for ev in base.events),
            p=moved(base.p), p_prime=moved(base.p_prime), q=moved(base.q), r=moved(base.r),
        )
        (tmp_path / "moved.json").write_text(scenario.to_json())
        log = run_trials(config(trials=1000 + 3, seed=5, scenario=str(tmp_path / "moved.json")))
        path = tmp_path / "trials.jsonl"
        write_trial_log(log, str(path))
        first = path.read_bytes().split(b"\n", 1)[0]
        assert b'"x": -8.00000025}' in first, first
        assert re.search(rb'"t": 1\.0\d*e-07, "x": -2\.5\d*e-07}', first), first
        assert path.read_bytes() == per_trial_log(log)

    def test_heads_of_different_widths(self, tmp_path):
        """Pairs whose heads differ in width: angle reprs of several lengths
        and a two-digit pair index."""
        angles = (0.0, 1e-05, 22.5, 179.99999999, 33.333333333333336, -0.1, 90.0, 3.0, 100.25, 7.5, 45.0)
        schedule = tuple(zip(angles, angles[::-1]))
        log = run_trials(config(trials=101, seed=9, schedule=schedule, scenario="late"))
        path = tmp_path / "trials.jsonl"
        write_trial_log(log, str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        widths = {len(lines[101 * i]) for i in range(len(schedule))}  # each pair's trial 0
        assert len(widths) >= 5
        assert path.read_bytes() == per_trial_log(log)

    def test_peak_memory_does_not_grow_with_trials(self):
        def peak(trials: int) -> int:
            log = run_trials(config(trials=trials, scenario="late"))
            tracemalloc.start()
            try:
                write_trial_log(log, os.devnull)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400_000) <= 1.5 * peak(100_000)


UNIFORM_GRID = 2**53


def uniform_verdict(k: int, c: float) -> bool:
    """``random()``'s verdict u >= c for the uniform u = k * 2**-53."""
    return float(k) * 2.0**-53 >= c


class TestIntegerSampler:
    """The integer thresholds, the guide table and ``_sample_chunk``
    against the float sampler they replace."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.one_of(st.integers(0, UNIFORM_GRID), st.sampled_from([0, 1, UNIFORM_GRID - 1, UNIFORM_GRID])),
        ulp=st.sampled_from([-1, 0, 1]),
        dk=st.sampled_from([-1, 0, 1]),
        k_any=st.integers(0, UNIFORM_GRID - 1),
    )
    def test_threshold_verdict_is_the_uniform_verdict(self, m, ulp, dk, k_any):
        c = float(m) * 2.0**-53  # on the grid, then one ulp either side
        if ulp:
            c = float(np.nextafter(c, math.copysign(math.inf, ulp)))
        (t,) = _thresholds(np.array([c])).tolist()
        for k in (m + dk, k_any):
            if 0 <= k < UNIFORM_GRID:
                assert (k >= t) == uniform_verdict(k, c), (k, c, t)

    @pytest.mark.parametrize(
        "cumulative",
        [0.0, -0.0, float(np.cumsum([0.33, 0.56, 0.11])[-1]), float(np.nextafter(1.0, 2.0)), 1.0],
        ids=["zero", "negative-zero", "cumsum-above-1", "next-after-1", "one"],
    )
    def test_threshold_edges(self, cumulative):
        (t,) = _thresholds(np.array([cumulative])).tolist()
        for k in (0, 1, t - 1, t, UNIFORM_GRID - 1):
            if 0 <= k < UNIFORM_GRID:
                assert (k >= t) == uniform_verdict(k, cumulative)
        if cumulative > 1.0:
            assert t == UNIFORM_GRID  # no 53-bit k reaches it

    def test_thresholds_are_the_clip_formula(self):
        """Rounding and clipping in place gives the bits of ``np.clip`` on
        a rounded copy, at the edges and across a run-sized array."""
        edges = [0.0, -0.0, 5e-324, 1.0 - 2.0**-53, 1.0, float(np.nextafter(1.0, 2.0))]
        values = np.random.default_rng(5).random((3, 4, 2048))
        values.reshape(-1)[: len(edges)] = edges
        for cumulative in (np.array(edges), values):
            expected = np.clip(np.ceil(np.ldexp(cumulative, 53)), 0, 2**53).astype(np.uint64)
            got = _thresholds(cumulative.copy())
            assert got.dtype == np.uint64 and got.shape == cumulative.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("weights", [MODELS["lhv"].weights, np.random.default_rng(3).dirichlet(np.ones(700))],
                             ids=["lhv", "dirichlet"])
    def test_guide_prior_is_the_clip_formula(self, weights):
        cumulative = np.cumsum(weights)
        expected = np.clip(np.ceil(np.ldexp(cumulative, 53)), 0, 2**53).astype(np.uint64)
        prior = _lambda_guide(weights).prior[: len(weights)]
        assert prior[:-1].tobytes() == expected[:-1].tobytes()
        assert prior[-1] == 2**64 - 1  # the last node takes every k

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        alpha=st.sampled_from([0.01, 0.2, 1.0, 50.0]),
        zero_runs=st.integers(0, 4),
        rng_seed=st.integers(0, 2**32 - 1),
    )
    def test_guide_table_is_searchsorted(self, n, alpha, zero_runs, rng_seed):
        rng = np.random.default_rng(rng_seed)
        weights = rng.dirichlet(np.full(n, alpha))  # small alpha: a few heavy nodes
        for _ in range(zero_runs):
            start = int(rng.integers(0, n))
            weights[start : start + int(rng.integers(1, n + 1))] = 0.0
        if weights.sum() == 0.0:
            weights[int(rng.integers(0, n))] = 1.0
        weights /= weights.sum()
        thresholds = _thresholds(np.cumsum(weights))
        exact = np.concatenate([thresholds, thresholds - 1, thresholds + 1]).astype(np.int64)
        k = np.concatenate([
            rng.integers(0, UNIFORM_GRID, size=2000),
            exact[(exact >= 0) & (exact < UNIFORM_GRID)],
            [0, UNIFORM_GRID - 1],
        ]).astype(np.uint64)
        expected = np.minimum(np.searchsorted(thresholds, k, side="right"), n - 1)
        assert np.array_equal(_lambda_index(_lambda_guide(weights), k), expected)

    @pytest.mark.parametrize(
        "model,state,angles,edges",
        [
            pytest.param("qm", None, (30.0, 112.5), None, id="qm"),
            pytest.param("lhv", None, (30.0, 112.5), None, id="lhv"),
            pytest.param("fixture", None, (30.0, 112.5), None, id="fixture"),
            # one-lambda thresholds at the edges 0 and 2**53, and repeated
            pytest.param("qm", np.diag([1.0, 0, 0, 0]), (0.0, 0.0), [0, 0, 0], id="qm-diag1000"),
            pytest.param("qm", np.diag([0, 0, 0, 1.0]), (0.0, 0.0), [UNIFORM_GRID] * 3, id="qm-diag0001"),
            pytest.param("qm", None, (30.0, 30.0), [UNIFORM_GRID // 2] * 3, id="qm-phi-30-30"),
            pytest.param("qm", None, (30.0, 120.0), [0, UNIFORM_GRID // 2, UNIFORM_GRID], id="qm-phi-30-120"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_sample_chunk_is_the_float_sampler(self, model, state, angles, edges, seed):
        built = MODELS[model] if state is None else quantum_model(PhotonPairState(state))
        a, b = map(as_angle, angles)
        guide = _lambda_guide(built.weights) if len(built.weights) > 1 else None
        thresholds = _cell_thresholds(built.cells([a], [b]), [0], [0])[0]
        if edges is not None:
            assert thresholds[:, 0].tolist() == edges
        prior_cum = np.cumsum(built.weights)
        cell_cum = np.cumsum(built.cells([a], [b])[0, 0].reshape(-1, 4), axis=1)
        sizes = (1, 3, 777, 4097, 9)  # odd chunks, drawn back to back from one generator
        u = np.random.Generator(philox(seed, 2)).random(2 * sum(sizes))
        lam = np.minimum(np.searchsorted(prior_cum, u[0::2], side="right"), len(prior_cum) - 1)
        expected = (u[1::2, None] >= cell_cum[lam, :3]).sum(axis=1)
        bitgen = philox(seed, 2)
        got = [_sample_chunk(bitgen, size, guide, thresholds) for size in sizes]
        assert all(chunk.dtype == np.uint8 for chunk in got)
        assert np.array_equal(np.concatenate(got), expected)


class TestSharedModels:
    """Every run of a name reads the one model ``MODELS`` built for it at
    import, and gives the reports of a fresh model."""

    def test_runs_build_no_guide(self, monkeypatch):
        built = []
        for module in (harness, locality):
            real = getattr(module, "_lambda_guide", None)
            if real is not None:
                monkeypatch.setattr(module, "_lambda_guide",
                                    lambda weights, _real=real: built.append(1) or _real(weights))
        for seed in (1, 2):
            harness.simulate(config(model="lhv", trials=10, seed=seed))
        assert built == []

    @pytest.mark.parametrize("report_format", ["json", "csv"])
    @pytest.mark.parametrize("name", sorted(FRESH_MODELS))
    def test_grid_sequence_reports_match_a_fresh_model(self, name, report_format, monkeypatch):
        """Grids G1, G2, G1 on the shared model: each report is byte-equal
        to its config's report on a fresh model."""
        grid_1 = ((10.0, 37.3), (10.0, 101.9), (123.4, 37.3))
        grid_2 = chsh_schedule(*CHSH_OPTIMAL_QUADRUPLE)
        configs = [config(model=name, schedule=s, trials=200, seed=5, report_format=report_format)
                   for s in (grid_1, grid_2, grid_1)]
        shared = [render_report(harness.simulate(c), report_format) for c in configs]
        fresh = []
        for c in configs:
            monkeypatch.setitem(MODELS, name, FRESH_MODELS[name]())
            fresh.append(render_report(harness.simulate(c), report_format))
        assert shared == fresh

    @pytest.mark.parametrize("name", sorted(FRESH_MODELS))
    def test_kept_grid_is_read_once(self, name, monkeypatch):
        """A second run on the grid the model holds reads no cell: the
        table and, for a JSON report, the condition sweep are kept."""
        cfg = config(model=name, trials=20)
        first = harness.simulate(cfg)
        calls = []
        real = ProbabilityModel.cells
        monkeypatch.setattr(ProbabilityModel, "cells",
                            lambda self, a, b: calls.append(1) or real(self, a, b))
        assert harness.simulate(cfg) == first
        assert calls == []

    @pytest.mark.parametrize("name", sorted(FRESH_MODELS))
    def test_runs_read_the_shared_model(self, name):
        assert run_trials(config(model=name, trials=5)).model is MODELS[name]

    @pytest.mark.parametrize("name", sorted(FRESH_MODELS))
    def test_shared_model_is_read_only(self, name):
        model = MODELS[name]
        table = model.table([0.0, 45.0])
        assert model._last_table[1] is table
        for array in (model.weights, table):
            assert not array.flags.writeable
        if model._guide is not None:
            assert not (model._guide.start.flags.writeable or model._guide.prior.flags.writeable)

    @pytest.mark.parametrize("name", sorted(FRESH_MODELS))
    def test_builders_make_a_new_model_on_each_call(self, name):
        first, second = FRESH_MODELS[name](), FRESH_MODELS[name]()
        assert first is not second and MODELS[name] not in (first, second)
        assert np.array_equal(first.weights, MODELS[name].weights)
        if first._guide is not None:
            assert np.array_equal(first._guide.prior, MODELS[name]._guide.prior)


class TestOneGridTable:
    """A run reads every pair's cells from one table over the schedule's
    sorted distinct angles, and those cells are the per-pair
    ``model.cells`` bit for bit, so the samples are those of that path."""

    angles = st.floats(-360.0, 360.0)

    @given(
        st.sampled_from(["qm", "lhv", "fixture"]),
        st.lists(st.tuples(angles, angles), min_size=1, max_size=4),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_equal_the_per_pair_path(self, model, schedule, seed):
        log = run_trials(config(model=model, schedule=schedule, trials=301, seed=seed))
        built = MODELS[model]
        guide = _lambda_guide(built.weights) if len(built.weights) > 1 else None
        for pair in log.pairs:
            thresholds = _cell_thresholds(built.cells([pair.a], [pair.b]), [0], [0])[0]
            expected = _sample_chunk(philox(seed, pair.pair_index), 301, guide, thresholds)
            assert np.array_equal(pair.cells, expected)

    @given(density_matrices(), st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_table_entries_are_the_pair_cells(self, matrix, grid):
        model = quantum_model(PhotonPairState(matrix))
        table = model.table(grid)
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                assert table[i, j].tobytes() == model.cells([a], [b])[0, 0].tobytes()

    @pytest.mark.parametrize("model", ["qm", "lhv", "fixture", "strategy"])
    def test_batched_thresholds_are_the_per_pair_ones(self, model, monkeypatch):
        """``run_trials`` thresholds every pair in one call; each pair's
        rows are those of ``_cell_thresholds`` on its own one-entry table
        and of the one-pair formula, bit for bit, on a schedule that
        repeats angles and a pair."""
        schedule = ((0.0, 45.0), (45.0, 45.0), (0.0, 0.0), (45.0, 0.0), (0.0, 45.0))
        if model == "strategy":  # defined on its quadruple's angles only
            built = strategy_model(0.0, 45.0, 0.0, 45.0, weights=np.random.default_rng(2).dirichlet(np.ones(16)))
            monkeypatch.setitem(MODELS, "lhv", built)
            model = "lhv"
        else:
            schedule += ((10.0, 37.3), (123.4, 37.3), (10.0, 10.0))
            built = MODELS[model]
        seen = {}
        real = harness._sample_chunk

        def spy(bitgen, count, guide, thresholds):
            seen[philox_key(bitgen)[1]] = thresholds
            return real(bitgen, count, guide, thresholds)

        monkeypatch.setattr(harness, "_sample_chunk", spy)
        log = run_trials(config(model=model, schedule=schedule, trials=20))
        assert sorted(seen) == list(range(len(schedule)))
        for pair in log.pairs:
            cells = built.cells([pair.a], [pair.b])
            vv, vh, hv, _ = cells[0, 0].transpose(1, 2, 0).reshape(4, -1)
            one_pair = np.stack([vv, vv + vh, (vv + vh) + hv])
            expected = np.clip(np.ceil(np.ldexp(one_pair, 53)), 0, 2**53).astype(np.uint64)
            got = seen[pair.pair_index]
            assert got.dtype == np.uint64 and got.shape == (3, len(built.weights))
            assert got.tobytes() == _cell_thresholds(cells, [0], [0])[0].tobytes() == expected.tobytes()

    def test_one_table_per_run(self, monkeypatch):
        # a fresh model, so a table the shared one kept from an earlier run
        # on this grid cannot stand in for the build
        monkeypatch.setitem(MODELS, "lhv", builtin_vector_model())
        calls = []
        for name in ("table", "cells"):
            real = getattr(ProbabilityModel, name)
            monkeypatch.setattr(ProbabilityModel, name, lambda self, *grids, _name=name, _real=real:
                                calls.append((_name, *map(tuple, grids))) or _real(self, *grids))
        run_trials(config(model="lhv", schedule=((10.0, 10.0), (10.0, 200.0), (20.0, 10.0))))
        assert calls == [("table", (10.0, 20.0)), ("cells", (10.0, 20.0), (10.0, 20.0))]


CHECKER_NAMES = ("check_parameter_independence", "check_outcome_independence",
                 "check_factorizability", "check_no_signalling")


def forbid_sweeps(monkeypatch, where):
    """Make the harness's four checkers, or the condition sweep behind
    them, raise when called."""
    def swept(*args, **kwargs):
        raise AssertionError("a condition sweep ran")

    if where == "checkers":
        for name in CHECKER_NAMES:
            monkeypatch.setattr(harness, name, swept)
    else:
        monkeypatch.setattr(locality, "_sweep", swept)


class TestShownWorkOnly:
    """Only a JSON report prints the four condition reports, so only a
    JSON run sweeps them; a CSV run and ``chsh --trials`` take the
    plug-in statistics alone, with the same values."""

    @pytest.mark.parametrize("where", ["checkers", "sweep"])
    @pytest.mark.parametrize("model", sorted(FRESH_MODELS))
    def test_csv_simulate_sweeps_nothing(self, model, where, tmp_path, monkeypatch):
        cfg = config(model=model, trials=200, seed=3, scenario="overlap", report_format="csv",
                     report_path=str(tmp_path / "report.csv"),
                     trial_log_path=str(tmp_path / "trials.jsonl"))
        full = empirical_statistics(run_trials(cfg))
        fresh = FRESH_MODELS[model]()
        monkeypatch.setitem(MODELS, model, fresh)
        forbid_sweeps(monkeypatch, where)
        bundle = harness.simulate(cfg)
        assert bundle.condition_reports == ()
        assert bundle == dataclasses.replace(full, condition_reports=())
        assert fresh._last_table[1] is not None and fresh._last_table[2] is None  # no sweep built
        assert (tmp_path / "report.csv").read_bytes() == render_report(full, "csv").encode()
        assert (tmp_path / "trials.jsonl").read_bytes() == per_trial_log(run_trials(cfg))

    @pytest.mark.parametrize("model", sorted(FRESH_MODELS))
    def test_json_simulate_carries_the_four_reports(self, model, tmp_path):
        schedule = ((10.0, 37.3), (10.0, 101.9), (123.4, 37.3))
        cfg = config(model=model, schedule=schedule, trials=50, report_path=str(tmp_path / "report.json"))
        bundle = harness.simulate(cfg)
        grid = schedule_grid(cfg.schedule)
        fresh = FRESH_MODELS[model]()
        assert bundle.condition_reports == tuple(
            getattr(locality, name)(fresh, grid) for name in CHECKER_NAMES)
        assert json.loads((tmp_path / "report.json").read_text())["condition_reports"] == [
            report.to_json_dict() for report in bundle.condition_reports]

    @pytest.mark.parametrize("where", ["checkers", "sweep"])
    @pytest.mark.parametrize("model", sorted(FRESH_MODELS))
    def test_chsh_trials_sweeps_nothing(self, model, where, capsys, monkeypatch):
        full = empirical_statistics(run_trials(config(model=model, trials=300, seed=6)))
        forbid_sweeps(monkeypatch, where)
        assert main(["chsh", "--model", model, "--trials", "300", "--seed", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["empirical_chsh"], payload["empirical_chsh_stderr"]) == (full.chsh, full.chsh_stderr)
        assert (payload["trials_per_pair"], payload["seed"]) == (300, 6)


class TestStatistics:
    def test_degenerate_log(self):
        cfg = config(schedule=((10.0, 10.0),), trials=200, seed=1)
        stats = empirical_statistics(run_trials(cfg)).pairs[0]
        assert stats.E == 1.0
        assert stats.E_stderr == 0.0
        assert sum(stats.frequencies) == pytest.approx(1.0, abs=1e-12)

    def test_empirical_chsh_close_to_exact(self):
        cfg = config(trials=100_000, seed=17)
        bundle = empirical_statistics(run_trials(cfg))
        assert bundle.chsh is not None
        assert abs(bundle.chsh - 2.0 * math.sqrt(2.0)) < 4.0 * bundle.chsh_stderr

    def test_lhv_empirical_chsh_near_zero(self):
        cfg = config(model="lhv", trials=100_000, seed=23)
        bundle = empirical_statistics(run_trials(cfg))
        assert abs(bundle.chsh) < 4.0 * bundle.chsh_stderr

    def test_chsh_only_for_four_pairs(self):
        cfg = config(schedule=((0.0, 22.5), (0.0, 45.0)), trials=100)
        bundle = empirical_statistics(run_trials(cfg))
        assert bundle.chsh is None

    def test_no_signal_deltas_statistically_zero(self):
        cfg = config(trials=100_000, seed=31)
        bundle = empirical_statistics(run_trials(cfg))
        assert bundle.no_signal_deltas  # schedule shares angles on both wings
        for delta in bundle.no_signal_deltas:
            assert delta.z_statistic < 4.0

    def test_fixture_model_signals(self):
        # remote settings straddle the fixture's 90-degree threshold
        cfg = config(
            model="fixture", schedule=((0.0, 45.0), (0.0, 135.0)), trials=100_000, seed=37
        )
        bundle = empirical_statistics(run_trials(cfg))
        delta = [d for d in bundle.no_signal_deltas if d.wing == "A"]
        assert delta and delta[0].delta == pytest.approx(0.25, abs=0.02)
        assert delta[0].z_statistic > 10.0


class TestMetaStatistics:
    """Coverage of the 4-sigma envelope over many independent seeds."""

    def test_frequency_coverage_100_seeds(self):
        from bellsim.quantum import as_angle

        grid = OPTIMAL_SCHEDULE + ((90.0, 112.5), (135.0, 157.5), (30.0, 30.0), (60.0, 150.0))
        expected = {
            (as_angle(a).degrees, as_angle(b).degrees): born_joint(bell_phi_plus(), a, b)
            for a, b in grid
        }
        n = 10_000
        failures = 0
        for seed in range(100):
            cfg = RunConfig(model="qm", schedule=grid, trials=n, seed=seed)
            bundle = empirical_statistics(run_trials(cfg))
            run_ok = True
            for stats in bundle.pairs:
                joint = expected[(stats.a_deg, stats.b_deg)]
                for freq, target in zip(
                    stats.frequencies, (joint.vv, joint.vh, joint.hv, joint.hh)
                ):
                    stderr = math.sqrt(target * (1.0 - target) / n)
                    if abs(freq - target) > 4.0 * stderr + 1e-12:
                        run_ok = False
            failures += not run_ok
        assert failures <= 1  # >= 99% of runs inside the envelope


class TestEmission:
    def test_csv_header_fixture(self, tmp_path):
        bundle = empirical_statistics(run_trials(config(trials=10)))
        path = tmp_path / "report.csv"
        emit_report(bundle, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_index,a_deg,b_deg,n,f_VV,f_VH,f_HV,f_HH,E,E_stderr"
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[-1].startswith("CHSH,")
        assert len(lines) == 6  # header + 4 pairs + summary

    def test_to_json_dict_returns_copies(self):
        bundle = empirical_statistics(run_trials(config(trials=10)))
        before = render_report(bundle, "json")
        data = bundle.to_json_dict()
        data["chsh"] = 0.0
        data["pairs"][0]["E"] = 9.0
        data["pairs"][1]["n"] = 0
        data["pairs"].pop()
        data["no_signal_deltas"][0]["delta"] = 9.0
        data["no_signal_deltas"].clear()
        assert render_report(bundle, "json") == before
        assert bundle.pairs[0].E != 9.0 and len(bundle.pairs) == 4
        assert bundle.no_signal_deltas and bundle.no_signal_deltas[0].delta != 9.0

    def test_to_json_dict_copies_condition_reports(self):
        bundle = empirical_statistics(run_trials(config(model="fixture", trials=10)))
        before = render_report(bundle, "json")
        originals = [report.to_json_dict() for report in bundle.condition_reports]
        data = bundle.to_json_dict()
        failing = [i for i, report in enumerate(bundle.condition_reports) if not report.holds]
        assert failing
        for i in failing:
            witness = data["condition_reports"][i]["witness"]
            assert witness == bundle.condition_reports[i].witness
            assert witness is not bundle.condition_reports[i].witness
            witness["wing"] = "edited"
            witness.clear()
        for report in data["condition_reports"]:
            report["holds"] = "edited"
            report.pop("witness")
        assert render_report(bundle, "json") == before
        assert [report.to_json_dict() for report in bundle.condition_reports] == originals
        assert all(bundle.condition_reports[i].witness for i in failing)

    def test_condition_report_attachments_round_trip(self, tmp_path):
        """The bundle carries its model's four condition reports over the
        schedule's grid as records, and the JSON report holds their dicts."""
        log = run_trials(config(model="fixture", trials=10))
        bundle = empirical_statistics(log)
        grid = schedule_grid(log.config.schedule)
        checks = (check_parameter_independence, check_outcome_independence,
                  check_factorizability, check_no_signalling)
        assert bundle.condition_reports == tuple(
            check(signalling_fixture_model(), grid) for check in checks)
        assert all(isinstance(report, ConditionReport) for report in bundle.condition_reports)
        assert not all(report.holds for report in bundle.condition_reports)
        path = tmp_path / "report.json"
        emit_report(bundle, "json", str(path))
        assert json.loads(path.read_text())["condition_reports"] == [
            report.to_json_dict() for report in bundle.condition_reports]

    @pytest.mark.parametrize("model", ["qm", "lhv"])
    def test_json_report_is_strict_json(self, model):
        """At one trial per pair both plug-in stderrs are 0: a nonzero gap
        has no z (null, not ``Infinity``) and a zero gap has z = 0.0."""
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        deltas = []
        for seed in range(20):
            bundle = empirical_statistics(run_trials(config(model=model, trials=1, seed=seed)))
            json.loads(render_report(bundle, "json"), parse_constant=reject)
            deltas += bundle.no_signal_deltas
        assert any(d.z_statistic is None for d in deltas)
        assert any(d.z_statistic == 0.0 for d in deltas)
        assert all((d.z_statistic is None) == (d.delta != 0.0) for d in deltas)

    def test_deterministic_bytes(self):
        bundle = empirical_statistics(run_trials(config(trials=25)))
        assert render_report(bundle, "csv") == render_report(bundle, "csv")
        assert render_report(bundle, "json") == render_report(bundle, "json")

    def test_io_failure_carries_path(self, tmp_path):
        bundle = empirical_statistics(run_trials(config(trials=5)))
        bad = tmp_path / "missing-dir" / "report.json"
        with pytest.raises(OSError, match="missing-dir"):
            emit_report(bundle, "json", str(bad))

    def test_trial_log_jsonl(self, tmp_path):
        cfg = config(trials=7, schedule=((0.0, 22.5),))
        log = run_trials(cfg)
        path = tmp_path / "trials.jsonl"
        write_trial_log(log, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 7
        assert lines[0]["a_deg"] == 0.0 and lines[0]["b_deg"] == 22.5
        assert lines[3]["trial"] == 3
        assert lines[0]["A"] in ("V", "H")


class _FailingHandle:
    """A file handle whose writes after the first ``allowed`` raise ENOSPC."""

    def __init__(self, handle, allowed):
        self._handle, self._allowed = handle, allowed

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        if self._allowed == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._allowed -= 1
        return self._handle.write(data)


def _write(kind, log, path):
    if kind == "log":
        write_trial_log(log, str(path))
    else:
        emit_report(empirical_statistics(log), kind, str(path))


class TestOverwriteInPlace:
    """Both writers overwrite an existing file in place and cut it to the
    new length: the result is always the bytes of a fresh write."""

    @pytest.mark.parametrize("kind", ["log", "json", "csv"])
    def test_overwriting_a_longer_file_is_a_fresh_write(self, kind, tmp_path):
        path, fresh = tmp_path / "out", tmp_path / "fresh"
        _write(kind, run_trials(config(trials=3_000, scenario="overlap")), path)
        longer = path.stat().st_size
        short = run_trials(config(trials=10, scenario="overlap"))
        _write(kind, short, path)
        _write(kind, short, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert 0 < fresh.stat().st_size < longer
        if kind == "log":
            assert fresh.read_bytes() == per_trial_log(short)

    @pytest.mark.parametrize("kind", ["log", "json", "csv"])
    def test_devnull_accepted(self, kind):
        _write(kind, run_trials(config(trials=10)), os.devnull)

    @pytest.mark.parametrize("kind, what", [("log", "trial log"), ("json", "report")])
    def test_directory_is_one_error(self, kind, what, tmp_path):
        message = rf"^failed to write {what} to {re.escape(repr(str(tmp_path)))}: [^\n]*$"
        with pytest.raises(OSError, match=message):
            _write(kind, run_trials(config(trials=10)), tmp_path)

    @pytest.mark.parametrize("kind, allowed", [("log", 1), ("csv", 0)])
    def test_failed_write_leaves_only_the_new_prefix(self, kind, allowed, tmp_path, monkeypatch):
        path, fresh = tmp_path / "out", tmp_path / "fresh"
        _write(kind, run_trials(config(trials=3_000, scenario="overlap")), path)
        short = run_trials(config(trials=10, scenario="overlap"))
        _write(kind, short, fresh)
        monkeypatch.setattr(
            harness, "open",
            lambda *args, **kwargs: _FailingHandle(open(*args, **kwargs), allowed),
            raising=False,
        )
        with pytest.raises(OSError, match="^failed to write .*No space left on device"):
            _write(kind, short, path)
        # the log writes one block per pair; the report writes once
        prefix = b"".join(fresh.read_bytes().splitlines(keepends=True)[: 10 * allowed])
        assert path.read_bytes() == prefix
