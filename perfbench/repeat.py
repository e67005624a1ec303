#!/usr/bin/env python3
"""Repeat mode: run one workload once per seed and summarize every metric.

    python3 perfbench/repeat.py --workload spin-verify --runs 10 --seconds 25

Each run is its own `run.py --trace 0` process, one after another, with
seeds 1, 2, ...  For every metric the summary gives the median, the first
and third quartiles (`statistics.quantiles(n=4)`) and the spread: the
distance between the quartiles as a share of the median.  The bounds in
BENCHMARK.json were set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    results = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}",
              flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{key:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
