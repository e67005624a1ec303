"""Walks past FALSE: a cover round decides a FALSE root's continuation
without building it as tree nodes, where the values the analysis knows
decide it (`_Explorer.walk`).

Every coverage computation must answer as it does when each walk is
abandoned and the root expanded as any node: byte for byte under the
depth-first strategies, with the same covered set and `exhausted` flag
under bfs, whose order a walk changes.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from vericov import (Budget, Spec, exact_coverage, explore, lang, parse_aa,
                     serialize_aa, source_to_cfa, under_approx_coverage)
from vericov import coverage, explorer
from vericov.automaton import AssumptionAutomaton
from vericov.cfa import ASSIGN, ASSUME, HALT, SKIP, Cfa, Edge
from vericov.explorer import TOP, make_strategy, replay

sys.path.insert(0, str(Path(__file__).parent))
from conftest import ALL_FIXTURES, fixture_cfa  # noqa: E402
from test_frontend_memory import large_source  # noqa: E402

VERIFY_BUDGETS = (5, 10, 30)
COVER_BUDGET = Budget(max_nodes=2000)


def _verify_automaton(cfa, max_nodes):
    return parse_aa(serialize_aa(
        explore(cfa, Spec.assertions(), Budget(max_nodes=max_nodes)).aa))


def _cases():
    """(name, cfa, automaton): every fixture under its `verify`
    automaton at each budget, and the benchmark-shaped wide program."""
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        for max_nodes in VERIFY_BUDGETS:
            yield f"{name}@{max_nodes}", cfa, _verify_automaton(cfa, max_nodes)
    cfa = source_to_cfa(large_source(30), name="small")
    yield "large_source(30)@150", cfa, _verify_automaton(cfa, 150)


def _reports(cases):
    """Each case's exact and under reports under each strategy, as
    (covered ids, exhausted, structured bytes)."""
    out = {}
    for name, cfa, aa in cases:
        for kind in explorer.STRATEGIES:
            for compute in (exact_coverage, under_approx_coverage):
                report = compute(cfa, aa, COVER_BUDGET, make_strategy(kind))
                out[name, kind, compute.__name__] = (
                    report.covered_ids, report.exhausted, report.to_json())
    return out


def _reference(ex, root, cap=10_000):
    """What decides the root's continuation, read with
    `lang.abstract_eval` over the root's valuation: "exit", "assert" (a
    failing one), "guards" (all 0), "top", "fork", or "long" after `cap`
    statements."""
    cfa, index = ex.cfa, ex.variables.index
    values, location = list(ex.tree.valuation[root]), ex.tree.location[root]
    for _ in range(cap):
        if location == cfa.exit:
            return "exit"
        ways = []
        for edge in cfa.out_edges(location):
            value = 1
            if edge.expr is not None:
                value = lang.abstract_eval(edge.expr, values, index)
                if value is TOP:
                    return "top"
                if edge.kind == "assume" and value == 0:
                    continue
            ways.append((edge, value))
        if not ways:
            return "guards"
        if len(ways) > 1:
            return "fork"
        edge, value = ways[0]
        if edge.kind == "assert" and value == 0:
            return "assert"
        if edge.kind == "assign":
            values[index[edge.var]] = value
        location = edge.dst
    return "long"


def test_walks_answer_as_expanding_the_roots_does(monkeypatch):
    cases = list(_cases())
    outcomes = []
    walk = explorer._Explorer.walk

    def classified(ex, root):
        reason = _reference(ex, root)
        decided = walk(ex, root)
        if not decided:
            outcome = "abandoned"
        elif ex.tree.status[root] == explorer.STATUS_PRUNED:
            outcome = "pruned"
        elif ex.bug is not None:
            outcome = "bug"
        else:
            outcome = "completed"
        outcomes.append((outcome, reason))
        return decided

    monkeypatch.setattr(explorer._Explorer, "walk", classified)
    walked = _reports(cases)
    assert _reports(cases) == walked  # byte-identical on a second run
    monkeypatch.setattr(explorer._Explorer, "walk", lambda ex, root: False)
    expanded = _reports(cases)

    assert len(walked) == 6 * (3 * len(ALL_FIXTURES) + 1)
    for run, (covered, exhausted, text) in walked.items():
        if run[1] == "bfs":
            assert (covered, exhausted) == expanded[run][:2], run
        else:
            assert text == expanded[run][2], run
    # A decided walk agrees with the abstract reading of the root's
    # continuation; every outcome occurs.
    for outcome, reason in outcomes:
        assert {"completed": {"exit"}, "pruned": {"assert", "guards"},
                "bug": {"assert"}}.get(outcome, {reason}) >= {reason}
    seen = set(outcomes)
    assert {("completed", "exit"), ("pruned", "assert"),
            ("abandoned", "top")} <= seen


def test_a_wide_program_walks_its_continuation_instead_of_building_it(
        monkeypatch):
    # The benchmark's small frontend-large program: before walks, each
    # round's tree held 304 nodes, 154 of them past FALSE.
    cfa = source_to_cfa(large_source(30), name="small")
    aa = _verify_automaton(cfa, 150)
    sizes = []

    def recorded(*args, **kwargs):
        result = explorer.explore(*args, **kwargs)
        sizes.append(len(result.nodes))
        return result

    monkeypatch.setattr(coverage, "explore", recorded)
    for compute in (exact_coverage, under_approx_coverage):
        report = compute(cfa, aa, Budget())
        assert (report.covered_count, report.executions_used,
                report.exhausted) == (116, 1, False)
    assert sizes == [150] * 4


def test_a_walk_abandons_a_location_with_two_ways_on(monkeypatch):
    # x = 5; skip; then `x > 0` and `x > 1` out of one location, both
    # holding, then a halt.  The automaton reads the assign and leaves the
    # skip to FALSE, so the node after the skip is a FALSE root that
    # tracks {0}; its walk finds two ways on and is abandoned.
    five, positive, above_one = (e.expr for e in source_to_cfa(
        "int main() { int x = 5; assert(x > 0); assert(x > 1); return 0; }"
    ).edges[:3])
    cfa = Cfa("two_ways", [0, 1, 2, 3, 4],
              [Edge(0, 2, 0, ASSIGN, "x", five), Edge(2, 3, 1, SKIP),
               Edge(3, 4, 2, ASSUME, None, positive),
               Edge(3, 4, 3, ASSUME, None, above_one),
               Edge(4, 1, 4, HALT)], entry=0, exit=1)
    aa = AssumptionAutomaton(name="two_ways", initial="q0")
    aa.add_state("q0", 0)
    aa.add_transition("q0", 0, "q1")
    aa.add_state("q1", 2)
    walks = []
    walk = explorer._Explorer.walk

    def recorded(ex, root):
        reason = _reference(ex, root)
        decided = walk(ex, root)
        walks.append((ex.tree.location[root], ex.tree.tracked[root], reason,
                      decided))
        return decided

    monkeypatch.setattr(explorer._Explorer, "walk", recorded)
    walked = exact_coverage(cfa, aa, COVER_BUDGET).to_json()
    assert walks == [(3, frozenset({0}), "fork", False)]
    monkeypatch.setattr(explorer._Explorer, "walk", lambda ex, root: False)
    assert exact_coverage(cfa, aa, COVER_BUDGET).to_json() == walked


# A verified prefix, then a deterministic loop that never ends.
ENDLESS = """int nondet();
int main() {
  int i = 0;
  int k = 0;
  while (k < 3) { k = k + 1; }
  while (1) { i = i + 1; }
  return 0;
}
"""


def _walk_steps(monkeypatch, cfa):
    """A list of the statements each walk takes, counted by the
    locations it reads the out edges of."""
    steps = []
    walk, out_edges = explorer._Explorer.walk, cfa.out_edges

    def counted(location):
        steps[-1] += 1
        return out_edges(location)

    def recorded(ex, root):
        steps.append(0)
        cfa.out_edges = counted
        try:
            return walk(ex, root)
        finally:
            del cfa.out_edges

    monkeypatch.setattr(explorer._Explorer, "walk", recorded)
    return steps


@pytest.mark.parametrize("max_nodes", [50, 500])
def test_a_walk_stops_at_the_node_budget(monkeypatch, max_nodes):
    # The walk stops once its statements would exceed what is left of
    # the budget; the root is then expanded as any node, and the round
    # creates nodes up to the budget, one expansion's overshoot at most.
    cfa = source_to_cfa(ENDLESS)
    aa = _verify_automaton(cfa, 10)
    steps = _walk_steps(monkeypatch, cfa)
    result = explore(cfa, Spec.cover(set(range(len(cfa.edges))), aa),
                     Budget(max_nodes=max_nodes))
    assert result.verdict == explorer.UNKNOWN
    assert len(steps) == 1 and max_nodes - 20 < steps[0] <= max_nodes
    assert max_nodes <= result.art_stats.nodes_created <= max_nodes + 1
    report = exact_coverage(cfa, aa, Budget(max_nodes=max_nodes))
    assert report.exhausted and report.covered_ids == []


def test_a_walk_stops_at_the_time_limit(monkeypatch):
    # The clock stands still until a walk starts, then reads 100 s on.
    cfa = source_to_cfa(ENDLESS)
    aa = _verify_automaton(cfa, 10)
    steps = _walk_steps(monkeypatch, cfa)
    monkeypatch.setattr(explorer, "time", SimpleNamespace(
        monotonic=lambda: 100.0 if steps else 0.0))
    report = exact_coverage(cfa, aa, Budget(time_limit=60.0))
    assert report.exhausted and report.covered_ids == []
    assert steps == [4095]  # the clock is read before statement 4,096


def test_a_walk_abandons_a_state_it_has_been_in():
    # `while (1) { i = 0; }` repeats its state: expanding the root lets
    # a cover end the round, where the walk would run to the time limit.
    cfa = source_to_cfa(ENDLESS.replace("i = i + 1", "i = 0"))
    aa = _verify_automaton(cfa, 10)
    report = exact_coverage(cfa, aa, Budget(time_limit=60.0))
    assert not report.exhausted and report.covered_ids == []


def test_a_prefix_search_asks_a_final_assert_to_hold():
    cfa = source_to_cfa("int nondet();\nint main() { int x = nondet(); "
                        "assert(x != 3); return 0; }")
    path = [0, 1]  # x = nondet(); assert x != 3
    assert replay(cfa, path).witness == {0: 3}
    assert replay(cfa, path, prefix=True).witness == {0: -8}
    assert replay(cfa, [0], prefix=True) == replay(cfa, [0])
