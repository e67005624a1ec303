"""Spans around the calls into each vericov layer, recorded from outside.

`Tracer.install` replaces each public layer function at every module
binding that calls it (the package's modules import some functions by
name, so one function can have several bindings) with a wrapper that
records a span: name, start, end, parent.  Counts are read from the values
the calls return.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (module, attribute, span name).  Hot per-statement helpers such as
# `step` or `concrete_eval` are deliberately not wrapped: a wrapper there
# would cost more than the work it measures.
BINDINGS = [
    ("vericov.cli", "main", "cli.main"),
    ("vericov.cli", "source_to_cfa", "lowering.source_to_cfa"),
    ("vericov.cli", "dump_cfa", "cfa.dump_cfa"),
    ("vericov.cli", "statement_ids", "cfa.statement_ids"),
    ("vericov.cli", "explore", "explorer.explore"),
    ("vericov.cli", "make_strategy", "explorer.make_strategy"),
    ("vericov.lang", "parse_program", "lang.parse_program"),
    ("vericov.lowering", "lower", "lowering.lower"),
    ("vericov.explorer", "live_variables", "cfa.live_variables"),
    ("vericov.explorer", "postorder_index", "cfa.postorder_index"),
    ("vericov.explorer", "emit_assumption_automaton",
     "explorer.emit_assumption_automaton"),
    ("vericov.explorer", "make_strategy", "explorer.make_strategy"),
    ("vericov.automaton", "parse_aa", "automaton.parse_aa"),
    ("vericov.automaton", "serialize_aa", "automaton.serialize_aa"),
    ("vericov.automaton", "check_alphabet", "automaton.check_alphabet"),
    ("vericov.coverage", "exact_coverage", "coverage.exact_coverage"),
    ("vericov.coverage", "under_approx_coverage",
     "coverage.under_approx_coverage"),
    ("vericov.coverage", "over_approx_coverage",
     "coverage.over_approx_coverage"),
    ("vericov.coverage", "explore", "explorer.explore"),
    ("vericov.coverage", "check_alphabet", "automaton.check_alphabet"),
    ("vericov.coverage", "statement_ids", "cfa.statement_ids"),
    ("vericov.coverage", "make_strategy", "explorer.make_strategy"),
    ("vericov.heuristic", "score", "heuristic.score"),
    ("vericov.heuristic", "compose", "heuristic.compose"),
    ("vericov.heuristic", "reach_fixpoint", "heuristic.reach_fixpoint"),
]


def _explore_name(name: str, args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"{name}[{spec.kind}]"


def _explore_counts(result) -> Dict[str, int]:
    s = result.art_stats
    return {"explorer.nodes_created": s.nodes_created,
            "explorer.nodes_covered": s.nodes_covered,
            "explorer.nodes_pruned": s.nodes_pruned,
            "explorer.counterexamples": len(result.counterexamples)}


def _aa_counts(aa) -> Dict[str, int]:
    return {"automaton.states": len(aa.states),
            "automaton.transitions": len(aa.transitions)}


def _report_counts(report) -> Dict[str, int]:
    return {"coverage.rounds": report.rounds,
            "coverage.executions": report.executions_used}


COUNT_METRICS = (
    "lowering.statements", "explorer.nodes_created", "explorer.nodes_covered",
    "explorer.nodes_pruned", "explorer.counterexamples", "automaton.states",
    "automaton.transitions", "heuristic.product_states", "coverage.rounds",
    "coverage.executions",
)

# Counts taken from a call: span name -> function(args, result).
COUNTS: Dict[str, Callable] = {
    "explorer.explore": lambda args, result: _explore_counts(result),
    "automaton.serialize_aa": lambda args, result: _aa_counts(args[0]),
    "lowering.lower": lambda args, result: {
        "lowering.statements": len(result.edges)},
    "heuristic.compose": lambda args, result: {
        "heuristic.product_states": len(result.states)},
    "coverage.exact_coverage": lambda args, result: _report_counts(result),
    "coverage.under_approx_coverage":
        lambda args, result: _report_counts(result),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Optional[Dict[str, int]] = None


class Tracer:
    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved: List = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counts = COUNTS.get(name)
        named = _explore_name if name == "explorer.explore" else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(named(name, args, kwargs) if named else name, clock(),
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": s.name,
                                      "start": s.start, "end": s.end,
                                      "parent": s.parent,
                                      "counts": s.counts}) + "\n")


def layer_metrics(spans: List[Span], start: int,
                  speed: float) -> Dict[str, float]:
    """Per-layer figures of the spans from index `start` on (one round).

    A span's self time is its duration minus the durations of its direct
    children.  Times are multiplied by `speed` (see run.py), rates divided.
    """
    child = defaultdict(float)
    for s in spans[start:]:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    for i in range(start, len(spans)):
        s = spans[i]
        total[s.name] += s.end - s.start
        own[s.name] += s.end - s.start - child[i]
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[key] += value
    explore_self = own["explorer.explore[assertions]"] + \
        own["explorer.explore[cover]"]
    out = {
        "lang.parse_s": total["lang.parse_program"],
        "lowering.lower_s": total["lowering.lower"],
        "cfa.dump_s": total["cfa.dump_cfa"],
        "cfa.live_variables_s": total["cfa.live_variables"],
        "cfa.live_variables_calls": calls["cfa.live_variables"],
        "cfa.postorder_s": total["cfa.postorder_index"],
        "explorer.assertions_self_s": own["explorer.explore[assertions]"],
        "explorer.cover_self_s": own["explorer.explore[cover]"],
        "explorer.calls": calls["explorer.explore[assertions]"]
        + calls["explorer.explore[cover]"],
        "explorer.nodes_per_s":
            counts["explorer.nodes_created"] / explore_self
            if explore_self else 0.0,
        "explorer.emit_s": total["explorer.emit_assumption_automaton"],
        "automaton.serialize_s": total["automaton.serialize_aa"],
        "automaton.parse_s": total["automaton.parse_aa"],
        "heuristic.compose_s": total["heuristic.compose"],
        "heuristic.reach_fixpoint_s": total["heuristic.reach_fixpoint"],
        "coverage.exact_self_s": own["coverage.exact_coverage"],
        "coverage.under_self_s": own["coverage.under_approx_coverage"],
        "cli.self_s": own["cli.main"],
    }
    for key, value in out.items():
        if key.endswith("per_s"):
            out[key] = value / speed
        elif key.endswith("_s"):
            out[key] = value * speed
    for key in COUNT_METRICS:
        out[key] = counts[key]
    return out
