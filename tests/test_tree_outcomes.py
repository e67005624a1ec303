"""One sha256 over the exploration trees of a seeded corpus, pinned in a
golden.

The corpus is every fixture, explored under `Spec.assertions()` and under
`Spec.cover` of every statement over the automaton `verify --max-nodes
200` writes for the fixture, with each strategy at node budgets 40 and
400; then every resumed round of one `exact_coverage` and one
`under_approx_coverage` per fixture over that automaton.  A call's outcome
is its verdict, its `art_stats`, its counterexamples and bug execution,
and one record per tree node: location, parent, incoming statement,
status, coverer, automaton state, sorted tracked set, valuation and fresh
mask.  A round's outcome is read as the round returns, before the next
round narrows the tree.  Regenerate the golden with

    PYTHONPATH=src python tests/test_tree_outcomes.py > tests/goldens/tree_outcomes.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Tuple

from vericov import (Budget, Spec, exact_coverage, explore, make_strategy,
                     parse_aa, serialize_aa, statement_ids,
                     under_approx_coverage)
from vericov import coverage, explorer

sys.path.insert(0, str(Path(__file__).parent))
from conftest import ALL_FIXTURES, GOLDENS, fixture_cfa  # noqa: E402

GOLDEN = GOLDENS / "tree_outcomes.json"
NODE_BUDGETS = (40, 400)
ROUND_BUDGET = Budget(max_nodes=400)


def _execution(execution) -> str:
    if execution is None:
        return "None"
    return repr((execution.statements, sorted(execution.witness.items())))


def _outcome(result) -> Tuple[int, bytes]:
    """The tree's size and the call's outcome."""
    lines = [result.verdict, repr(astuple(result.art_stats)),
             *map(_execution, result.counterexamples),
             "bug " + _execution(result.bug_execution)]
    for n in result.nodes:
        lines.append(repr((n.cfa_node, n.parent, n.incoming_stmt, n.status,
                           n.covered_by, n.aa_state, sorted(n.tracked),
                           n.valuation, n.fresh)))
    return len(result.nodes), "\n".join(lines).encode() + b"\0"


def _round_outcomes(compute, cfa, aa):
    """The outcome of each round of one coverage computation."""
    outcomes = []

    def recorded(*args, **kwargs):
        result = explorer.explore(*args, **kwargs)
        outcomes.append(_outcome(result))
        return result

    coverage.explore = recorded
    try:
        compute(cfa, aa, ROUND_BUDGET)
    finally:
        coverage.explore = explorer.explore
    return outcomes


def _outcomes():
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        aa = parse_aa(serialize_aa(
            explore(cfa, Spec.assertions(), Budget(max_nodes=200)).aa))
        strategies = [make_strategy("bfs"), make_strategy("dfs-postorder"),
                      make_strategy("dfs-postorder+score")]
        specs = [Spec.assertions(), Spec.cover(statement_ids(cfa), aa)]
        for strategy in strategies:
            for spec in specs:
                for max_nodes in NODE_BUDGETS:
                    yield _outcome(explore(cfa, spec,
                                           Budget(max_nodes=max_nodes),
                                           strategy))
        yield from _round_outcomes(exact_coverage, cfa, aa)
        yield from _round_outcomes(under_approx_coverage, cfa, aa)


def digest() -> dict:
    h = hashlib.sha256()
    calls = nodes = 0
    for size, outcome in _outcomes():
        h.update(outcome)
        calls += 1
        nodes += size
    return {"calls": calls, "nodes": nodes, "sha256": h.hexdigest()}


def test_tree_outcomes_match_golden():
    assert digest() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digest(), indent=1) + "\n")
