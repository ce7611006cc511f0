"""Tests of the benchmark itself.

Run from the root of a checkout with

    python3 -m pytest perfbench/selftest.py -q

(the file name keeps it out of the project's own test collection). They
show that each independent check rejects a corrupted output, run every
workload for a few requests, and run the whole benchmark command.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def one_request(workload, index=0, **overrides):
    data = workload.inputs(index)
    data.update(overrides)
    workload.stage(data)
    return data, workload.request(data)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=7, work_dir=str(tmp_path))
    for index in range(2):
        data, out = one_request(workload, index)
        failed = workload.check(data, out)
        # the only operation allowed to fail is the fixed on-cone build
        expected = 1 if name == "chance-queries" and "error" in out["on-cone"] else 0
        assert failed == expected


def test_trial_log_check_rejects_a_flipped_line(tmp_path):
    workload = workloads.SimulateLog(seed=3, work_dir=str(tmp_path))
    data, out = one_request(workload)
    log = workload.path("trials.jsonl")
    with open(log, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    record = json.loads(lines[1234])
    record["B"] = "H" if record["B"] == "V" else "V"
    lines[1234] = json.dumps(record, sort_keys=True)
    with open(log, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="Philox"):
        workload.check(data, out)


def test_mc_sweep_recheck_catches_counts_that_no_plan_reproduces(tmp_path):
    workload = workloads.McSweep(seed=5, work_dir=str(tmp_path))
    data, out = one_request(workload, recheck=True)
    assert workload.check(data, out) == 0
    path = workload.path("report-0.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    # swapping the VV and HH counts keeps E, CHSH and every statistic the
    # same, so only re-running the sampler can tell
    pair = report["pairs"][2]
    counts = pair["counts"]
    assert counts[0] != counts[3]
    counts[0], counts[3] = counts[3], counts[0]
    pair["frequencies"] = [c / pair["n"] for c in counts]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    with pytest.raises(CheckError, match="workers=2"):
        workload.check(data, out)


def chance_outputs(tmp_path):
    workload = workloads.ChanceQueries(seed=11, work_dir=str(tmp_path))
    data, out = one_request(workload)
    return workload, data, out


def test_chance_check_rejects_a_perturbed_chance(tmp_path):
    workload, data, out = chance_outputs(tmp_path)
    bad = copy.deepcopy(out)
    key = next(k for k, v in bad["late"]["chances"].items() if v is not None and 0 < v < 1)
    bad["late"]["chances"][key] += 1e-9
    with pytest.raises(CheckError, match="chance of"):
        workload.check(data, bad)


def test_chance_check_rejects_a_boosted_copy_that_differs(tmp_path):
    workload, data, out = chance_outputs(tmp_path)
    bad = copy.deepcopy(out)
    bad["overlap-boosted"]["estimates"][0] = None
    with pytest.raises(CheckError, match="boosted"):
        workload.check(data, bad)


def test_chance_check_rejects_a_wrong_verdict(tmp_path):
    workload, data, out = chance_outputs(tmp_path)
    bad = copy.deepcopy(out)
    bad["overlap"]["depends"]["setting-b"] = ("dependent", (0.5, 0.25))
    with pytest.raises(CheckError, match="setting-b"):
        workload.check(data, bad)


def test_chance_check_rejects_a_defined_chance_where_a_setting_is_hidden():
    layout = checks.LAYOUTS["late"]
    # at p' the late layout hides wing A's setting
    assert checks.expected_chance(layout, "p'", "eA", {"a": 10.0, "b": 20.0}, {"a": "V", "b": "V"}) is None
    assert checks.expected_chance(layout, "q", "eA", {"a": 10.0, "b": 20.0}, {"a": "V", "b": "H"}) is None
    overlap = checks.LAYOUTS["overlap"]
    value = checks.expected_chance(overlap, "q", "eA", {"a": 10.0, "b": 20.0}, {"a": "V", "b": "H"})
    assert value == pytest.approx(0.0301536896070458, abs=1e-12)  # sin^2(10 degrees)


def test_condition_check_rejects_a_wrong_verdict(tmp_path):
    workload = workloads.ModelConditions(seed=2, work_dir=str(tmp_path))
    data, out = one_request(workload)
    assert workload.check(data, out) == 0
    bad = copy.deepcopy(out)
    bad["parameter_independence"]["holds"] = False
    with pytest.raises(CheckError, match="parameter_independence"):
        workload.check(data, bad)
    bad = copy.deepcopy(out)
    bad["factorizability"]["max_deviation"] *= 1.001
    with pytest.raises(CheckError, match="factorizability"):
        workload.check(data, bad)


def test_lhv_check_rejects_a_wrong_verdict(tmp_path):
    workload = workloads.ModelConditions(seed=2, work_dir=str(tmp_path))
    data, out = one_request(workload)
    path = workload.path("report.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    report["condition_reports"][1]["holds"] = False
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    with pytest.raises(CheckError, match="outcome_independence"):
        workload.check(data, out)


def test_times_are_scaled_by_the_local_reference_speed():
    import run

    reference = [0.002] * 5 + [0.004] * 20
    scaled = run.at_reference_speed([0.1] * 25, reference)
    assert scaled[0] == pytest.approx(0.1 * run.REFERENCE_MS / 0.002)
    assert scaled[-1] == pytest.approx(0.1 * run.REFERENCE_MS / 0.004)


def run_benchmark(cwd, workload, trace, seed=4):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_prints_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    done = run_benchmark(ROOT, "chance-queries", trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100 * workloads.ChanceQueries.ops
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_two_traced_runs_give_identical_counts():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    runs = []
    for _ in range(2):
        done = run_benchmark(ROOT, "chance-queries", trace=1)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.splitlines()[-1])["metrics"])
    assert set(runs[0]) == {m["name"] for m in spec["per_layer"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "MB")]
    assert [runs[0][m]["value"] for m in counts] == [runs[1][m]["value"] for m in counts]
    assert runs[0]["chance.chance_at.calls"]["value"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_benchmark(tmp_path, "chance-queries", trace=0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
