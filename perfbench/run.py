"""bellsim benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The run imports bellsim from the checkout's ``src`` directory, times
how long a fresh interpreter takes to import it and build the
workload's inputs, then issues requests one after another until
``--seconds`` have passed and at least MIN_REQUESTS requests are done.
Each request is timed alone; its outputs are checked independently
after the clock stops. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK_DIR = os.path.join(HERE, "work")

#: Every run holds at least this many requests, so that at least ten
#: latencies lie beyond the 90th percentile.
MIN_REQUESTS = 100

#: A run stops issuing requests after this much loop time even if it is
#: short of MIN_REQUESTS, so that it always ends within 180 seconds.
LOOP_LIMIT_S = 140.0

#: The traced run reports per-request figures over this fixed window of
#: requests, so its counts repeat exactly for a given seed.
TRACED_REQUESTS = 100

#: Fresh-interpreter set-up measurements per run; the median is reported.
SETUP_REPEATS = 7

#: Index of the untimed warm-up request; no measured request reaches it.
WARMUP_INDEX = 2**31

#: The machine's own speed drifts by 20-40 % over seconds to minutes, for
#: every workload alike. A fixed pure-Python loop of REFERENCE_ITERATIONS,
#: run after every request outside its timed interval, measures that
#: speed. Each request's wall and CPU time is reported at the speed at
#: which this loop takes REFERENCE_MS: it is scaled by REFERENCE_MS over
#: the median loop time of the REFERENCE_WINDOW requests around it. Set-up
#: time is reported as measured.
REFERENCE_ITERATIONS = 20_000
REFERENCE_MS = 2.0
REFERENCE_WINDOW = 11

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_bellsim():
    """Import bellsim from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bellsim", "__init__.py")):
        raise ImportError(f"no bellsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import bellsim

    if os.path.dirname(os.path.dirname(os.path.abspath(bellsim.__file__))) != SRC:
        raise ImportError(f"bellsim was imported from {bellsim.__file__}, not from {SRC}")


def reference_loop() -> float:
    """Seconds taken by the fixed reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(times: list[float], reference: list[float]) -> list[float]:
    """``times`` (seconds) in reference-speed milliseconds."""
    half = REFERENCE_WINDOW // 2
    scaled = []
    for i, value in enumerate(times):
        local = statistics.median(reference[max(0, i - half):i + half + 1])
        scaled.append(value * REFERENCE_MS / local)
    return scaled


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds a fresh interpreter takes to import bellsim and build the
    inputs of MIN_REQUESTS requests, measured SETUP_REPEATS times."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), str(MIN_REQUESTS)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run(args) -> dict:
    import_bellsim()
    from tracer import METRICS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK_DIR)
    setup = measure_setup(args.workload, args.seed)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    warmup = workload.inputs(WARMUP_INDEX)
    workload.stage(warmup)
    workload.request(warmup)

    latencies, cpu, reference = [], [], []
    attempted = failed = 0
    crashes, wrong = [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    loop_start = clock()
    index = 0
    while (index < MIN_REQUESTS or clock() - loop_start < args.seconds) and (
        clock() - loop_start < LOOP_LIMIT_S
    ):
        data = workload.inputs(index)
        workload.stage(data)
        if args.trace and index < TRACED_REQUESTS:
            tracer.begin(index)
        c0, t0 = cpu_clock(), clock()
        try:
            out = workload.request(data)
        except Exception:  # a failing request is counted, and the run goes on
            out = None
            crashes.append(f"request {index} failed:\n{traceback.format_exc()}")
        t1, c1 = clock(), cpu_clock()
        tracer.finish()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        reference.append(reference_loop())
        attempted += workload.ops
        if out is None:
            failed += workload.ops
        else:
            try:
                failed += workload.check(data, out)
            except Exception as exc:  # an output the checks cannot even read is wrong too
                wrong.append(f"request {index}: wrong output: {type(exc).__name__}: {exc}")
        index += 1

    for message in (crashes + wrong)[:5]:
        print(message, file=sys.stderr)
    if args.trace:
        traced = min(index, TRACED_REQUESTS)
        tracer.write(os.path.join(WORK_DIR, f"{args.workload}-spans.npz"))
        values = tracer.metrics(traced)
        values["trace.request_p50_ms"] = statistics.median(latencies[:traced]) * 1e3
        values["machine.reference_ms"] = statistics.median(reference) * 1e3
        units = {name: spec[0] for name, spec in METRICS.items()}
        units.update({"trace.spans": "count", "trace.request_p50_ms": "ms",
                      "machine.reference_ms": "ms"})
    else:
        latency_ms = at_reference_speed(latencies, reference)
        values = {
            "requests_per_s": len(latency_ms) / sum(latency_ms) * 1e3,
            "request_p50_ms": statistics.median(latency_ms),
            "request_p90_ms": statistics.quantiles(latency_ms, n=10)[8],
            "cpu_ms_per_request": statistics.fmean(at_reference_speed(cpu, reference)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
