"""Run-to-run spread of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds 25] [--trace 0] [--out runs.jsonl]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. Each run's
result line is appended to ``--out`` when it is given.

``--workload fixed-loop`` runs the benchmark's reference loop instead of
bellsim, in a fresh process per run, and reports its median time as
measured: the machine's own drift, to tell apart from the program's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))


def fixed_loop(seconds: float) -> dict:
    """Median time of the reference loop, repeated for ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        times.append(reference_loop())
    return {"correct": True, "attempted": len(times), "failed": 0,
            "metrics": {"loop_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--loop-once", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.loop_once is not None:
        print(json.dumps(fixed_loop(args.loop_once)))
        return 0

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        if args.workload == "fixed-loop":
            command = [sys.executable, __file__, "--workload", "fixed-loop",
                       "--loop-once", str(args.seconds)]
        else:
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        line = done.stdout.splitlines()[-1]
        result = json.loads(line)
        results.append(result)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {sorted({r['failed'] / r['attempted'] for r in results})}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:<40} {first['unit']:<6} median {median:12.6g}  "
              f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
