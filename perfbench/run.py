#!/usr/bin/env python3
"""vericov benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload spin-verify --seed 1 --seconds 25 --trace 0

Run from the repository root.  The benchmark imports vericov from `src/`
(nothing is installed), generates the workload's programs from the seed,
writes them under `perfbench/work/`, and then repeats whole rounds of the
workload's commands through `vericov.cli.main`, in this process, until
`--seconds` have passed.  Every answer is checked (see checks.py).

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics.  A timing metric is the time a round spends in one
command kind: the sum over the round's calls of that kind of each call's
median over the measured rounds (the first round warms up and is not
measured), every time scaled to reference speed (see REFERENCE_SECONDS).
With `--trace 1` measured rounds alternate between untraced and traced; the
traced rounds time the calls into each vericov layer (see spans.py) and
the result holds the per-layer metrics, medians over the traced rounds,
with the traced and untraced round times side by side.  The spans are
written to `perfbench/work/spans-<workload>-<seed>.jsonl`.

Operations that hit one of the two known faults named in README.md are
counted in `failed`; any other wrong answer makes `correct` false.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import model  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIMED = ("verify_s", "cover_exact_s", "cover_under_s", "score_s",
         "cfa_dump_s")
SETUP_REPEATS = 7
# The shared CPU of a small cloud VM changes speed by up to 1.9x for tens
# of seconds at a time (identical vericov work measured 0.38 s and 0.71 s in
# consecutive 25 s runs).  Every timed call is therefore bracketed by a
# fixed reference workload, the benchmark's own interpreter running a fixed
# program, and its wall time is scaled by REFERENCE_SECONDS / (mean of the
# two reference times): seconds at the speed at which the reference takes
# REFERENCE_SECONDS, about its time on an unloaded core of the 2.0 GHz Xeon
# VM the bounds were set on.  vericov's code never runs inside the
# reference.
REFERENCE = gen.large(random.Random(0), "reference", 40)
REFERENCE_PASSES = 8
REFERENCE_SECONDS = 0.0021
MODULES = ("vericov.lang", "vericov.lowering", "vericov.cfa",
           "vericov.explorer", "vericov.automaton", "vericov.heuristic",
           "vericov.coverage", "vericov.cli")


def reference_time() -> float:
    start = time.perf_counter()
    for _ in range(REFERENCE_PASSES):
        for _ in model.run(REFERENCE, ()):
            pass
    return time.perf_counter() - start


def scaled_time(fn):
    """Run fn(); return its result and its wall time at reference speed."""
    before = reference_time()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    speed = REFERENCE_SECONDS / ((before + reference_time()) / 2)
    return result, elapsed * speed, speed


def import_vericov() -> dict:
    """A fresh import of every vericov module from `src/`."""
    for name in [m for m in sys.modules
                 if m == "vericov" or m.startswith("vericov.")]:
        del sys.modules[name]
    import vericov.cli  # noqa: F401  (imports every layer)
    return {name: sys.modules[name] for name in MODULES}


class Run:
    """Counts operations, collects problems and times commands."""

    def __init__(self, lib: dict, tracer: spans.Tracer):
        self.lib = lib
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.round_values: dict = defaultdict(list)
        self.round_speeds: list = []
        self._op_problems: list = []

    # -- operations ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, fault: bool = False):
        """One checked operation; `fault` marks a known-fault operation."""
        self._op_problems = []
        self.attempted += 1
        try:
            yield
        except Exception:  # a crash or unparsable answer is a wrong answer
            self._op_problems.append(traceback.format_exc(limit=3))
        if self._op_problems:
            if fault:
                self.failed += 1
            else:
                self.problems.extend(self._op_problems)

    def check(self, problems: list) -> None:
        self._op_problems.extend(problems)

    def expect(self, condition: bool, problem: str) -> None:
        if not condition:
            self._op_problems.append(problem)

    @contextlib.contextmanager
    def untraced(self):
        """Work outside every metric: checks, library steps, fault runs."""
        if not self.traced:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    # -- commands ------------------------------------------------------------

    def cli(self, argv: list, metric):
        """Run one command in-process; time it into `metric` unless None."""
        main = self.lib["vericov.cli"].main
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    return main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    return exc.code

        if metric is None:
            return call(), out.getvalue()
        rc, elapsed, speed = scaled_time(call)
        self.round_values[metric].append(elapsed)
        self.round_speeds.append(speed)
        return rc, out.getvalue()

    def aa_bytes(self, path: str) -> None:
        self.round_values["aa_bytes"].append(os.path.getsize(path))


def setup(workload, seed: int, work: Path):
    """Import vericov, generate the inputs and write them; timed by caller."""
    lib = import_vericov()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload.setup(random.Random(seed), work)
    return lib


def _median(values):
    return statistics.median(values) if values else 0.0


def per_round(rounds: list, metric: str) -> float:
    """A round's total of the metric, taking each call at its median.

    Every round makes the same calls in the same order, so the k-th call
    of a metric is the same command on the same input in every round.
    """
    per_call = zip(*(r.get(metric, ()) for r in rounds))
    return sum(statistics.median(values) for values in per_call)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vericov" / "__init__.py").is_file():
        print(f"error: no vericov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []

    def timed_setup():
        lib, elapsed, _ = scaled_time(
            lambda: setup(workload, args.seed, work))
        setup_times.append(elapsed)
        return lib

    lib = timed_setup()
    vericov_file = Path(lib["vericov.cli"].__file__).resolve()
    if SRC.resolve() not in vericov_file.parents:
        print(f"error: vericov imported from {vericov_file}", file=sys.stderr)
        return 2

    tracer = spans.Tracer(lib)
    run = Run(lib, tracer)
    rounds = {False: [], True: []}  # traced? -> per-round call times
    layers = []
    start = time.perf_counter()
    index = 0
    try:
        while True:
            # Round 0 warms up; with --trace 1 measured rounds alternate.
            traced = bool(args.trace) and index % 2 == 1
            run.round_values = defaultdict(list)
            run.round_speeds = []
            mark = len(tracer.spans)
            if traced:
                tracer.install()
                run.traced = True
            try:
                workload.round(run)
            finally:
                if traced:
                    tracer.uninstall()
                    run.traced = False
            if index > 0:
                rounds[traced].append(dict(run.round_values))
                if traced:
                    layers.append(spans.layer_metrics(
                        tracer.spans, mark, _median(run.round_speeds)))
            index += 1
            done = time.perf_counter() - start >= args.seconds
            if done and rounds[False] and (rounds[True] or not args.trace):
                break
            if len(setup_times) < SETUP_REPEATS:
                # Set up again between rounds, so the repeats sample the
                # machine at different moments of the run.
                run.lib = tracer.modules = timed_setup()
    except Exception:
        run.problems.append(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for key in sorted(layers[0]) if layers else ():
            unit = "count" if key in spans.COUNT_METRICS or \
                key.endswith("_calls") or key == "explorer.calls" else \
                "1/s" if key.endswith("per_s") else "s"
            metrics[key] = {"value": _median([r[key] for r in layers]),
                            "unit": unit}
        untraced = sum(per_round(rounds[False], m) for m in TIMED)
        traced = sum(per_round(rounds[True], m) for m in TIMED)
        metrics["trace.untraced_round_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_round_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead"] = {
            "value": traced / untraced - 1 if untraced else 0.0,
            "unit": "ratio"}
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {"setup_s": {"value": _median(setup_times), "unit": "s"}}
        for key in TIMED:
            metrics[key] = {"value": per_round(rounds[False], key),
                            "unit": "s"}
        metrics["aa_bytes"] = {"value": per_round(rounds[False], "aa_bytes"),
                               "unit": "bytes"}
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MiB"}

    measured = len(rounds[False]) + len(rounds[True])
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"rounds {measured} measured + 1 warm-up; "
          f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
