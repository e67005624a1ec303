"""A metamorphic sweep of coverage over seeded random programs.

Each of 50 loop-free `_random_program` programs (nondet share 0.3) runs
with two automata: the all-`__TRUE` one and one `_random_automaton`.
Every case takes five `exact_coverage` runs: `dfs-postorder` at 1, 2 and
10 executions per round, and `bfs` and `dfs-postorder+score` at 10.  No
oracle is needed for its two checks:

* a finished exact answer is one set, whatever the order and the cap;
* `exact ⊆ over` on every exact run, and `under ⊆ exact` on every
  finished one unless `under` found a bug.

Run it as a script to print the cases, the finished runs, the
mismatches of each check and the seconds it took:

    PYTHONPATH=src python tests/test_program_sweep.py
"""

from __future__ import annotations

import functools
import random
import sys
import time
from pathlib import Path

import pytest

from vericov import (Budget, exact_coverage, make_strategy,
                     over_approx_coverage, source_to_cfa,
                     under_approx_coverage)

sys.path.insert(0, str(Path(__file__).parent))
from test_coverage import _full_aa, _random_automaton  # noqa: E402
from test_explorer import _random_program  # noqa: E402

SEED = 9
PROGRAMS = 50
DOMAIN = range(-2, 3)
MAX_NODES = 20_000
# (strategy, executions per round) of each exact run.
EXACT_RUNS = [("dfs-postorder", 1), ("dfs-postorder", 2),
              ("dfs-postorder", 10), ("bfs", 10),
              ("dfs-postorder+score", 10)]
UNDER_RUN = ("dfs-postorder+score", 10)
CASES = [f"p{i}-{aa}" for i in range(PROGRAMS) for aa in ("true", "random")]

# The cases whose finished exact sets differ.  Seven programs' cases
# cover fewer statements at 1 or 2 executions per round than at 10, and
# p36's cover two fewer under dfs-postorder than under bfs.  With covering
# turned off no case differs.
_ITEM_4 = pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a cover "
                            "can lose the only witness of a statement")
ORDER_MISMATCHES = {"p10-true", "p22-true", "p23-true", "p23-random",
                    "p36-true", "p36-random", "p38-true", "p40-true",
                    "p49-true"}


@functools.cache
def _cases():
    """(cfa, automaton) of each case, in `CASES` order."""
    rng = random.Random(SEED)
    cases = []
    for i in range(PROGRAMS):
        cfa = source_to_cfa(_random_program(rng, nondet_share=0.3),
                            name=f"p{i}")
        cases += [(cfa, _full_aa()), (cfa, _random_automaton(rng, cfa))]
    return cases


@functools.cache
def _runs(case: int):
    """The exact runs' (covered set, exhausted), in `EXACT_RUNS` order,
    the under run's (covered set, bug found) and the over set."""
    cfa, aa = _cases()[case]
    exact = []
    for kind, max_cex in EXACT_RUNS:
        report = exact_coverage(cfa, aa, Budget(max_nodes=MAX_NODES,
                                                max_counterexamples=max_cex),
                                make_strategy(kind), DOMAIN)
        exact.append((frozenset(report.covered_ids), report.exhausted))
    kind, max_cex = UNDER_RUN
    under = under_approx_coverage(
        cfa, aa, Budget(max_nodes=MAX_NODES, max_counterexamples=max_cex),
        make_strategy(kind), DOMAIN)
    over = frozenset(over_approx_coverage(cfa, aa).covered_ids)
    return exact, (frozenset(under.covered_ids), under.bug_found), over


def order_mismatch(case: int) -> bool:
    exact, _under, _over = _runs(case)
    return len({covered for covered, exhausted in exact
                if not exhausted}) > 1


def nesting_mismatch(case: int) -> bool:
    exact, (under, bug_found), over = _runs(case)
    return any(not covered <= over or
               not (exhausted or bug_found or under <= covered)
               for covered, exhausted in exact)


@pytest.mark.parametrize("case", [
    pytest.param(i, id=name, marks=_ITEM_4 if name in ORDER_MISMATCHES else ())
    for i, name in enumerate(CASES)])
def test_finished_exact_coverage_depends_on_neither_order_nor_cap(case):
    assert not order_mismatch(case)


@pytest.mark.parametrize("case", range(len(CASES)), ids=CASES)
def test_coverage_answers_nest(case):
    assert not nesting_mismatch(case)


if __name__ == "__main__":
    started = time.perf_counter()
    finished = sum(not exhausted for case in range(len(CASES))
                   for _covered, exhausted in _runs(case)[0])
    order = [CASES[c] for c in range(len(CASES)) if order_mismatch(c)]
    nesting = [CASES[c] for c in range(len(CASES)) if nesting_mismatch(c)]
    print(f"{len(CASES)} cases, {finished} of {len(CASES) * len(EXACT_RUNS)}"
          f" exact runs finished, in {time.perf_counter() - started:.1f} s")
    print(f"order or cap mismatches: {len(order)} {' '.join(order)}")
    print(f"nesting mismatches: {len(nesting)} {' '.join(nesting)}")
