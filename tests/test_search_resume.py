"""Witness searches that resume where an earlier search stood.

The explorer starts a search at the deepest fork of the last searched path
that the new path passes too, from the state the earlier search had there,
or answers it with the result that search kept.  Every search it makes
must return what `replay` returns from entry, in the same mode: verdict,
witness and steps.  A search without an assert edge, of the path into an
exit node or a walked root, runs in prefix mode.

Run it as a script to print the `_run_path` runs and statement
evaluations of the benchmark's branch chain under `cover-exact` and
`cover-under`:

    PYTHONPATH=src python tests/test_search_resume.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from vericov import (AssumptionAutomaton, Budget, Spec, exact_coverage,
                     explore, lang, parse_aa, serialize_aa, source_to_cfa,
                     under_approx_coverage)
from vericov import explorer
from vericov.explorer import (DEFAULT_NONDET_DOMAIN, DEFAULT_REPLAY_STEP_LIMIT,
                              make_strategy, replay)

sys.path.insert(0, str(Path(__file__).parent))
from conftest import ALL_FIXTURES, fixture_cfa  # noqa: E402
from test_coverage import BRANCH_CHAIN  # noqa: E402
from test_explorer import _CORPORA, _random_program  # noqa: E402

# Limits small enough that `inconclusive` lands inside prefixes that
# searches share.
SMALL_STEP_LIMITS = [5, 20, 60]
CHAIN_DOMAIN = range(-2, 3)
MAX_CHAIN_RUNS = 150  # 593 when every search started from entry
# Its assert reads nondet() values, and enters FALSE under the automaton
# of `_false_at_asserts`: the walk from there searches a path that ends in
# that assert, in prefix mode.
ASSERT_INTO_FALSE = """int nondet();
int main() {
  int x = nondet();
  int y = nondet();
  if (x < y) { x = y; }
  assert(x != 2);
  return 0;
}
"""


class _Recorder:
    """Every search the explorer makes, as (cfa, path, domain, prefix
    mode, result), how many `_search_witness` calls began at entry and
    how many from a saved state, and how many ran in prefix mode on a
    path that ends in an assert.  The searches that made no call took a
    kept result."""

    def __init__(self, monkeypatch):
        self.searches = []
        self.calls = {"entry": 0, "resumed": 0, "prefix-assert": 0}
        search, witness = explorer._Explorer.search, explorer._search_witness

        def recorded(ex, nid, edge=None):
            result, path = search(ex, nid, edge)
            self.searches.append((ex.cfa, tuple(path), ex.domain,
                                  edge is None, result))
            return result, path

        def counted(cfa, path, domain, step_limit, state, forks,
                    counterexample=False):
            self.calls["entry" if state is None else "resumed"] += 1
            self.calls["prefix-assert"] += \
                not counterexample and cfa.edges[path[-1]].kind == "assert"
            return witness(cfa, path, domain, step_limit, state, forks,
                           counterexample)

        monkeypatch.setattr(explorer._Explorer, "search", recorded)
        monkeypatch.setattr(explorer, "_search_witness", counted)

    def mismatches(self, step_limit):
        """The searches whose result differs from `replay`'s from entry.
        Each `replay` calls `_search_witness` too, so read `calls`
        first."""
        wrong = []
        for cfa, path, domain, prefix, got in self.searches:
            want = replay(cfa, path, domain, step_limit, prefix)
            if (got.verdict, got.witness, got.steps) != \
                    (want.verdict, want.witness, want.steps):
                wrong.append((cfa.name, path, want, got))
        return wrong


def _cover_cases():
    """(cfa, automaton, budget, domain): every fixture under each
    automaton `tests/test_digest.py` writes with `verify`, at the node
    budget that made it, the branch chain under its complete one, and a
    program whose assert enters FALSE."""
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        for nodes in (60, 400):
            for strategy in ("bfs", "dfs-postorder"):
                result = explore(cfa, Spec.assertions(),
                                 Budget(max_nodes=nodes),
                                 strategy=make_strategy(strategy))
                yield (cfa, parse_aa(serialize_aa(result.aa)),
                       Budget(max_nodes=nodes), DEFAULT_NONDET_DOMAIN)
    cfa = source_to_cfa(BRANCH_CHAIN)
    yield cfa, _complete_automaton(cfa), Budget(), CHAIN_DOMAIN
    cfa = source_to_cfa(ASSERT_INTO_FALSE)
    yield cfa, _false_at_asserts(cfa), Budget(), DEFAULT_NONDET_DOMAIN


def _false_at_asserts(cfa):
    """One state that reads every statement but an assert."""
    aa = AssumptionAutomaton(name=cfa.name, initial="q0")
    aa.add_state("q0", cfa.entry)
    for edge in cfa.edges:
        if edge.kind != "assert":
            aa.add_transition("q0", edge.id, "q0")
    return aa


def _complete_automaton(cfa):
    return explore(cfa, Spec.assertions(), Budget(),
                   nondet_domain=CHAIN_DOMAIN).aa


@pytest.mark.parametrize("step_limit",
                         [DEFAULT_REPLAY_STEP_LIMIT, *SMALL_STEP_LIMITS])
def test_cover_searches_match_replay_from_entry(monkeypatch, step_limit):
    # The digest's cover runs: exact, and under with each strategy.  Their
    # rounds narrow one tree.
    monkeypatch.setattr(explorer, "DEFAULT_REPLAY_STEP_LIMIT", step_limit)
    recorder = _Recorder(monkeypatch)
    for cfa, aa, budget, domain in _cover_cases():
        exact_coverage(cfa, aa, budget, nondet_domain=domain)
        for strategy in ("bfs", "dfs-postorder", "dfs-postorder+score"):
            under_approx_coverage(cfa, aa, budget, make_strategy(strategy),
                                  nondet_domain=domain)
    # Some searches resume, some take a kept result, and some ask a final
    # assert to hold.
    assert recorder.calls["resumed"] > 0
    assert recorder.calls["prefix-assert"] > 0
    assert len(recorder.searches) > \
        recorder.calls["entry"] + recorder.calls["resumed"]
    assert recorder.mismatches(step_limit) == []


@pytest.mark.parametrize("step_limit", [1000, *SMALL_STEP_LIMITS])
def test_assertion_searches_match_replay_from_entry(monkeypatch, step_limit):
    # The random programs of the backjumping tests, explored for their
    # asserts under each corpus' domains.  Those tests search them with at
    # most 1,000 steps: under the default limit, a few take seconds to
    # refute a path.
    monkeypatch.setattr(explorer, "DEFAULT_REPLAY_STEP_LIMIT", step_limit)
    recorder = _Recorder(monkeypatch)
    for seed, generator, domains in _CORPORA:
        rng = random.Random(seed)
        for _ in range(40):
            cfa = source_to_cfa(_random_program(rng, **generator))
            for strategy in ("bfs", "dfs-postorder"):
                explore(cfa, Spec.assertions(), Budget(max_nodes=300),
                        strategy=make_strategy(strategy),
                        nondet_domain=rng.choice(domains))
    assert recorder.calls["resumed"] > 0
    assert recorder.mismatches(step_limit) == []


def chain_search_work(under: bool = False):
    """(`_run_path` runs, statement evaluations) of the branch chain's
    coverage under the automaton of its complete `verify`."""
    cfa = source_to_cfa(BRANCH_CHAIN)
    aa = _complete_automaton(cfa)
    counts = {"runs": 0, "evaluations": 0}
    run_path, evaluate = explorer._run_path, lang.concrete_eval

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    explorer._run_path = counted("runs", run_path)
    lang.concrete_eval = counted("evaluations", evaluate)
    try:
        compute = under_approx_coverage if under else exact_coverage
        report = compute(cfa, aa, Budget(), nondet_domain=CHAIN_DOMAIN)
    finally:
        explorer._run_path, lang.concrete_eval = run_path, evaluate
    assert report.covered_count == 24
    return counts["runs"], counts["evaluations"]


def test_chain_cover_exact_runs_stay_bounded():
    runs, _ = chain_search_work()
    assert runs <= MAX_CHAIN_RUNS


if __name__ == "__main__":
    for mode, under in (("cover-exact", False), ("cover-under", True)):
        runs, evaluations = chain_search_work(under)
        print(f"branch chain {mode}: {runs} runs, {evaluations}"
              f" evaluations (bound {MAX_CHAIN_RUNS} runs on cover-exact)")
