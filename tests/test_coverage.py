"""Coverage metric: exact/under/over drivers, reports, and the exercised
sets the explorer's tree hands to the coverage rounds, checked against
the oracle's own automaton walk."""

from __future__ import annotations

import json
from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest

from vericov import coverage, explorer, lang
from vericov import (Budget, Spec, StatementIdMismatch, exact_coverage,
                     explore, make_strategy, over_approx_coverage, parse_aa,
                     serialize_aa, source_to_cfa, under_approx_coverage)
from vericov.automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton)
from vericov.cfa import ASSIGN, HALT, Cfa, Edge

from conftest import ALL_FIXTURES, ORACLE_CORPUS, fixture_cfa, golden

import oracle


def _full_aa():
    return AssumptionAutomaton(name="all", initial=TRUE_STATE)


def _false_aa():
    return AssumptionAutomaton(name="none", initial=FALSE_STATE)


# Exact ------------------------------------------------------------------------


def test_exact_branching_program_with_permissive_automaton():
    report = exact_coverage(fixture_cfa("deadbranch.c"), _full_aa(), Budget())
    assert report.covered_ids == [0, 1, 2, 5, 6, 7]
    assert report.covered_count == 6
    assert report.total_statements == 8
    assert report.value == pytest.approx(0.75)
    assert report.executions_used == 1
    assert not report.exhausted
    assert not report.bug_found
    assert report.rounds == 2  # second round proves {3, 4} uncoverable


def test_exact_zero_when_every_execution_trips_the_assert():
    report = exact_coverage(fixture_cfa("tinyloop_bug.c"), _full_aa(), Budget())
    assert report.covered_ids == []
    assert report.value == 0.0
    assert not report.exhausted
    assert report.rounds == 1


def test_exact_flags_exhaustion_when_budget_cuts_the_search():
    report = exact_coverage(fixture_cfa("bigloop.c"), _full_aa(),
                            Budget(max_nodes=500))
    assert report.covered_ids == []
    assert report.exhausted
    assert not report.bug_found


def test_exact_flags_exhaustion_when_the_deadline_passes(monkeypatch):
    # The rounds' clock reads 0 for the deadline and the first round, then
    # 2 s: the second round, which would prove {3, 4} uncoverable, never
    # starts.  The explorer's clock stands still.
    monkeypatch.setattr(coverage, "time", SimpleNamespace(
        monotonic=iter([0.0, 0.0, 2.0]).__next__))
    monkeypatch.setattr(explorer, "time", SimpleNamespace(
        monotonic=lambda: 0.0))
    report = exact_coverage(fixture_cfa("deadbranch.c"), _full_aa(),
                            Budget(time_limit=1.0))
    assert report.covered_ids == [0, 1, 2, 5, 6, 7]
    assert report.rounds == 1
    assert report.exhausted
    assert report.to_dict()["exhausted"] is True


def test_exact_flags_exhaustion_when_a_search_runs_out_of_steps(
        monkeypatch):
    # Each path into exit runs the loop: about 25 statements, against a
    # 10-step search.  Every search ends inconclusive, so the rounds find
    # nothing, and the report must not read as a finished computation.
    monkeypatch.setattr(explorer, "DEFAULT_REPLAY_STEP_LIMIT", 10)
    cfa = source_to_cfa("int nondet();\nint main() { int x = nondet(); "
                        "int i = 0; while (i < 10) { i = i + 1; } "
                        "return 0; }")
    report = exact_coverage(cfa, _full_aa(), Budget())
    assert report.covered_ids == []
    assert report.exhausted


def test_two_halts_out_of_one_location_are_refused():
    # x = nondet(), then two halts out of one location: one expansion
    # would reach two exit nodes, the second with the round's executions
    # already full.  Only assumes branch, so `validate` refuses the shape,
    # and no end is ever reached with a round full.
    cfa = Cfa("two_halts", [0, 1, 2],
              [Edge(0, 2, 0, ASSIGN, "x", lang.NONDET_EXPR),
               Edge(2, 1, 1, HALT), Edge(2, 1, 2, HALT)], entry=0, exit=1)
    with pytest.raises(ValueError, match="^statements 1 and 2 leave one"
                                         " location, and only assumes"
                                         " branch$"):
        cfa.validate()


@pytest.mark.parametrize("max_cex", [1, 2])
def test_an_end_reached_with_the_round_full_is_asked_by_the_next(max_cex):
    # Two returns after a branch: two executions reach exit.  At one
    # execution per round, the second is left for the next round, which
    # must find it; at two, one round records both.
    cfa = source_to_cfa("int nondet();\nint main() { int x = nondet(); "
                        "if (x > 0) { return 1; } return 0; }")
    report = exact_coverage(cfa, _full_aa(),
                            Budget(max_counterexamples=max_cex))
    assert report.covered_ids == [0, 1, 2, 3, 4]
    assert report.executions_used == 2
    assert report.rounds == 3 - max_cex
    assert not report.exhausted
    under = under_approx_coverage(cfa, _full_aa(),
                                  Budget(max_counterexamples=2))
    assert under.covered_ids == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("strategy", ["bfs", "dfs-postorder"])
@pytest.mark.parametrize("max_cex", [1, 2])
def test_no_round_records_past_the_counterexample_budget(monkeypatch,
                                                         strategy, max_cex):
    # `run` checks the budget before each expansion only, which on a
    # lowered program records at most one execution or counterexample.
    # Every assertions-mode run and every coverage round stays within it,
    # and some reach it (no fixture fails two asserts, but some rounds
    # record two executions).
    budget = Budget(max_nodes=2000, max_counterexamples=max_cex)
    counts = []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        counts.append(len(result.counterexamples))
        return result

    real = coverage.explore
    monkeypatch.setattr(coverage, "explore", spy)
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        spy(cfa, Spec.assertions(), budget, strategy=strategy)
        exact_coverage(cfa, _full_aa(), budget, strategy=strategy)
    assert max(counts) == max_cex


def test_exact_false_initial_resolves_in_one_round():
    report = exact_coverage(fixture_cfa("deadbranch.c"), _false_aa(), Budget())
    assert report.covered_ids == []
    assert report.rounds == 1
    assert not report.exhausted


def test_exact_agrees_with_enumeration_oracle():
    for name in ("deadbranch.c", "tinyloop_bug.c", "deadcode_nested.c",
                 "branches_nondet.c", "skip_stmts.c"):
        cfa = fixture_cfa(name)
        expected = oracle.exact_covered(cfa, _full_aa(), oracle.DEFAULT_DOMAIN)
        report = exact_coverage(cfa, _full_aa(), Budget(),
                                nondet_domain=range(-2, 3))
        assert set(report.covered_ids) == expected, name


def test_exact_monotone_in_the_automaton_language():
    cfa = fixture_cfa("deadbranch.c")
    interrupted = explore(cfa, Spec.assertions(), Budget(max_nodes=3)).aa
    small = exact_coverage(cfa, interrupted, Budget())
    full = exact_coverage(cfa, _full_aa(), Budget())
    assert set(small.covered_ids) <= set(full.covered_ids)


def test_exact_rounds_never_exceed_statement_count():
    # In both modes, every round but the last records an execution.
    for name in ("deadbranch.c", "deadcode_nested.c", "chain_ifs.c",
                 "early_return.c"):
        for compute in (exact_coverage, under_approx_coverage):
            report = compute(fixture_cfa(name), _full_aa(), Budget())
            assert report.rounds <= report.total_statements, name
            assert report.rounds <= report.executions_used + 1, name


def test_exact_execution_entries_partition_the_covered_set():
    report = exact_coverage(fixture_cfa("deadcode_nested.c"), _full_aa(),
                            Budget())
    seen = set()
    for entry in report.per_execution:
        assert set(entry) == {"statements", "witness", "newly_covered"}
        newly = set(entry["newly_covered"])
        assert newly
        assert not newly & seen
        assert newly <= set(entry["statements"])
        seen |= newly
    assert seen == set(report.covered_ids)


def test_exact_rejects_foreign_automaton():
    aa = AssumptionAutomaton(name="other", initial="q0")
    aa.add_state("q0", 0)
    aa.add_transition("q0", 99, TRUE_STATE)  # no such statement in deadbranch
    with pytest.raises(StatementIdMismatch):
        exact_coverage(fixture_cfa("deadbranch.c"), aa, Budget())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the witness search "
                   "tries only the nondet domain, not the guard's constant")
def test_exact_coverage_of_a_guard_outside_the_domain_is_exact():
    # x = 100 runs the then-branch, but the search tries only -8..8, so
    # `x == 100` and `x = 0` go uncovered and the report is not exhausted.
    cfa = source_to_cfa("int nondet();\n"
                        "int main() { int x = nondet(); "
                        "if (x == 100) { x = 0; } return 0; }")
    aa = explore(cfa, Spec.assertions(), Budget()).aa
    report = exact_coverage(cfa, aa, Budget())
    assert report.covered_ids == [0, 1, 2, 3, 4]


# Under ------------------------------------------------------------------------


def test_under_is_contained_in_exact():
    cfa = fixture_cfa("deadbranch.c")
    under = under_approx_coverage(cfa, _full_aa(),
                                  Budget(max_counterexamples=8))
    exact = exact_coverage(cfa, _full_aa(), Budget())
    assert set(under.covered_ids) <= set(exact.covered_ids)
    assert under.mode == "under"
    assert under.executions_used <= 8


def test_under_single_execution_budget():
    report = under_approx_coverage(fixture_cfa("deadbranch.c"), _full_aa(),
                                   Budget(max_counterexamples=1))
    assert report.executions_used == 1
    assert report.covered_ids == [0, 1, 2, 5, 6, 7]


def test_under_reports_bug_and_stops():
    report = under_approx_coverage(fixture_cfa("tinyloop_bug.c"), _full_aa(),
                                   Budget(max_counterexamples=10))
    assert report.bug_found
    assert report.executions_used == 0
    assert report.covered_ids == []
    assert not report.exhausted


def test_under_false_initial_generates_nothing():
    report = under_approx_coverage(fixture_cfa("deadbranch.c"), _false_aa(),
                                   Budget())
    assert report.covered_ids == []
    assert report.executions_used == 0


def test_under_respects_node_budget_with_exhausted_flag():
    report = under_approx_coverage(fixture_cfa("bigloop.c"), _full_aa(),
                                   Budget(max_nodes=500))
    assert report.covered_ids == []
    assert report.exhausted


def test_rounds_search_each_path_once_and_emit_nothing(monkeypatch):
    # The rounds of one computation share their witness searches, and no
    # round reads the automaton of its own exploration, so none is emitted.
    cfa = fixture_cfa("chain_ifs.c")
    aa = explore(cfa, Spec.assertions(), Budget(max_nodes=200)).aa
    searched = []
    emitted = 0
    search, emit = explorer._search_witness, explorer.emit_assumption_automaton

    def counted_search(cfa, path, *args):
        searched.append(tuple(path))
        return search(cfa, path, *args)

    def counted_emit(*args, **kwargs):
        nonlocal emitted
        emitted += 1
        return emit(*args, **kwargs)

    monkeypatch.setattr(explorer, "_search_witness", counted_search)
    monkeypatch.setattr(explorer, "emit_assumption_automaton", counted_emit)
    rounds = _record_rounds(monkeypatch)
    report = under_approx_coverage(cfa, aa, Budget(max_nodes=600),
                                   nondet_domain=range(-2, 3))
    assert report.rounds == len(rounds) > 1
    assert len(searched) == len(set(searched)) == 4
    assert emitted == 0
    # One tree: each round's nodes take the ids after the previous round's.
    nodes = rounds[0][0]
    assert all(tree is nodes for tree, _, _ in rounds)
    assert [node.id for node in nodes] == list(range(len(nodes)))
    first = 0
    for _, size, created in rounds:
        assert size - first == created > 0
        first = size


def _record_rounds(monkeypatch):
    """Per round of the coverage computations that follow: the tree, its
    size after the round and the nodes the round created."""
    rounds = []

    def recorded(*args, **kwargs):
        result = explorer.explore(*args, **kwargs)
        rounds.append((result.nodes, len(result.nodes),
                       result.art_stats.nodes_created))
        return result

    monkeypatch.setattr(coverage, "explore", recorded)
    return rounds


# The benchmark's `gen.branch_chain(Random(1))` program.
BRANCH_CHAIN = """int nondet();
int main() {
  int r = 0;
  int a0 = nondet();
  if (a0 == 0) { r = r + 1; }
  int a1 = nondet();
  if (a1 == 2) { r = r + 1; }
  int a2 = nondet();
  if ((a2 * a2) < 0) { r = r + 1; }
  int a3 = nondet();
  if (a3 == 0) { r = r + 1; }
  int a4 = nondet();
  if ((a4 * a4) >= 0) { r = r + 1; }
  int a5 = nondet();
  if (a5 == 1) { r = r + 1; }
  assert(r >= 0);
  return 0;
}
"""


@pytest.mark.parametrize("mode, bound", [("exact", 330), ("under", 300)])
def test_rounds_narrow_one_tree_instead_of_rebuilding_it(monkeypatch, mode,
                                                         bound):
    # A rebuild from the root every round created 473 nodes over the exact
    # rounds and 667 over the under rounds.
    cfa = source_to_cfa(BRANCH_CHAIN)
    domain = range(-2, 3)
    aa = explore(cfa, Spec.assertions(), Budget(), nondet_domain=domain).aa
    rounds = _record_rounds(monkeypatch)
    compute = exact_coverage if mode == "exact" else under_approx_coverage
    report = compute(cfa, aa, Budget(), make_strategy("dfs-postorder"),
                     nondet_domain=domain)
    assert report.covered_count == 24
    assert not report.exhausted
    created = sum(n for _, _, n in rounds)
    assert created == rounds[-1][1] <= bound



def test_narrowing_drops_pruned_nodes_from_their_cover_groups(monkeypatch):
    # Round 1 covers what some FALSE nodes of the partial automaton
    # track, so narrowing prunes them.  A pruned node can cover no node;
    # left in their groups, these would take 512 more `_covers` calls.
    cfa = source_to_cfa(BRANCH_CHAIN)
    aa = explore(cfa, Spec.assertions(), Budget(max_nodes=63),
                 make_strategy("bfs")).aa
    probed = []  # the status of each cover candidate
    covers = explorer._Explorer._covers

    def recorded_covers(self, j, v):
        probed.append(self.tree.status[j])
        return covers(self, j, v)

    monkeypatch.setattr(explorer._Explorer, "_covers", recorded_covers)
    report = exact_coverage(cfa, aa, Budget(max_nodes=400,
                                            max_counterexamples=3),
                            make_strategy("bfs"),
                            nondet_domain=oracle.DEFAULT_DOMAIN)
    assert report.rounds > 1
    assert len(probed) == 2381 - 512
    assert explorer.STATUS_PRUNED not in probed

def _rebuild_each_round(cfa, spec, budget, *args, resume=None, **kwargs):
    """The reference for narrowing: every round explores from the root."""
    return explorer.explore(cfa, spec, budget, *args, **kwargs)


def _sweep_automata():
    """The automaton of each fixture's `verify` under each strategy at
    node budgets 60 and 400, as in the digest golden."""
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        for strategy in ("bfs", "dfs-postorder"):
            for max_nodes in (60, 400):
                aa = explore(cfa, Spec.assertions(),
                             Budget(max_nodes=max_nodes),
                             make_strategy(strategy)).aa
                yield (name, strategy, max_nodes), cfa, aa


def _coverage_sweep():
    """(covered ids, exhausted) of every exact and under computation on
    the sweep's automata, at cover budgets 60 and 400 and 1, 2 and 10
    executions."""
    out = {}
    for run, cfa, aa in _sweep_automata():
        strategies = {kind: make_strategy(kind)
                      for kind in explorer.STRATEGIES}
        for max_nodes in (60, 400):
            for max_cex in (1, 2, 10):
                budget = Budget(max_nodes=max_nodes,
                                max_counterexamples=max_cex)
                key = (*run, max_nodes, max_cex)
                report = exact_coverage(cfa, aa, budget,
                                        nondet_domain=oracle.DEFAULT_DOMAIN)
                out[(*key, "exact")] = (report.covered_ids, report.exhausted)
                for kind, strategy in strategies.items():
                    report = under_approx_coverage(
                        cfa, aa, budget, strategy,
                        nondet_domain=oracle.DEFAULT_DOMAIN)
                    out[(*key, kind)] = (report.covered_ids, report.exhausted)
    return out


# Runs where narrowing covers more than the rebuild: all of chain_ifs.c.
# The rebuild loses statements 10 and 11 (`a > 1`, `r = 3`) to the cover
# defect of test_a_dead_top_cover_can_lose_the_only_witness; the narrowed
# tree built those nodes under round 1's larger tracked sets, so that
# cover never forms.
NARROWING_GAINS = {("chain_ifs.c", verify, verify_nodes, nodes, 10, "bfs")
                   for verify in ("bfs", "dfs-postorder")
                   for verify_nodes in (60, 400) for nodes in (60, 400)}


def test_narrowed_rounds_match_a_rebuild_per_round(monkeypatch):
    narrowed = _coverage_sweep()
    monkeypatch.setattr(coverage, "explore", _rebuild_each_round)
    rebuilt = _coverage_sweep()
    assert len(narrowed) == 2592
    assert [run for run in narrowed
            if not set(rebuilt[run][0]) <= set(narrowed[run][0])] == []
    assert {run for run in narrowed
            if narrowed[run] != rebuilt[run]} == NARROWING_GAINS
    automata = {run: (cfa, aa) for run, cfa, aa in _sweep_automata()}
    for run in NARROWING_GAINS:
        cfa, aa = automata[run[:3]]
        expected = oracle.exact_covered(cfa, aa, oracle.DEFAULT_DOMAIN)
        assert set(narrowed[run][0]) == expected > set(rebuilt[run][0])


@pytest.mark.xfail(strict=True, reason="a cover on a dead top can lose the "
                   "only witness of a statement")
def test_a_dead_top_cover_can_lose_the_only_witness():
    # At L10, after `r = 3`, the node on the infeasible path a < 0,
    # a != 0, a > 1 covers the one on the feasible path a >= 0, a != 0,
    # a > 1 once both track only {10, 11}: `a` is dead there and TOP on
    # both sides, and the strict policy guards only live tops.  The
    # covered node's witness a = 2 is never searched.
    cfa = fixture_cfa("chain_ifs.c")
    report = exact_coverage(cfa, _full_aa(), Budget(max_counterexamples=1),
                            nondet_domain=range(-2, 3))
    assert set(report.covered_ids) == \
        oracle.exact_covered(cfa, _full_aa(), oracle.DEFAULT_DOMAIN)


# A loop-free program that a scratch sweep of random programs found, quoted
# in ROADMAP item 9.  The oracle covers 19 of its 29 statements.
LOOP_FREE_MISS = """int nondet();
int main() {
  int v0 = nondet();
  int v1 = v0;
  int v2 = -((-1 + v0));
  v1 = (v0 / (nondet() != 1));
  assert(((v0 != v0) < v0));
  if (-(!(v1))) { v0 = -(v0); if (0) {  } else { v1 = nondet(); } } else { if (((nondet() || v1) % (v1 + v2))) {  } else {  } if (v2) {  } else { v0 = ((v2 && v0) < (v2 * nondet())); } }
  if (!(-(nondet()))) { v0 = (1 + (v0 && 2)); if (((v2 || v1) || (-1 && v0))) { v2 = ((1 % -2) - (v0 || -1)); } else {  } } else { assert(v1); if (((v2 * 1) % v0)) { assert(-2); } else { assert((!(nondet()) || v0)); v1 = ((v0 && nondet()) <= !(v0)); } }
  return 0;
}
"""

_ITEM_4 = pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a cover "
                            "can lose the only witness of a statement")


@pytest.mark.parametrize("max_cex", [pytest.param(1, marks=_ITEM_4),
                                     pytest.param(2, marks=_ITEM_4), 10])
def test_loop_free_exact_coverage_matches_the_oracle(max_cex):
    cfa = source_to_cfa(LOOP_FREE_MISS)
    report = exact_coverage(cfa, _full_aa(),
                            Budget(max_counterexamples=max_cex),
                            nondet_domain=oracle.DEFAULT_DOMAIN)
    expected = oracle.exact_covered(cfa, _full_aa(), oracle.DEFAULT_DOMAIN)
    assert len(expected) == 19
    assert not report.exhausted
    assert set(report.covered_ids) == expected


# Over -------------------------------------------------------------------------


def test_over_reads_surviving_transition_labels():
    report = over_approx_coverage(fixture_cfa("bigloop.c"),
                                  parse_aa(golden("bigloop_partial.aa")))
    assert report.covered_ids == [0, 1, 2, 5, 6]  # 3 leads to __FALSE
    assert report.executions_used == 0
    assert not report.exhausted


def test_over_false_initial_is_empty():
    aa = AssumptionAutomaton(name="dead", initial=FALSE_STATE)
    report = over_approx_coverage(fixture_cfa("deadbranch.c"), aa)
    assert report.covered_ids == []


def test_over_bounds_exact_for_emitted_automata():
    for name, max_nodes in (("deadbranch.c", None), ("bigloop.c", 500),
                            ("deadcode_nested.c", None),
                            ("loop_concrete.c", None)):
        cfa = fixture_cfa(name)
        budget = Budget() if max_nodes is None else Budget(max_nodes=max_nodes)
        emitted = explore(cfa, Spec.assertions(), budget).aa
        exact = exact_coverage(cfa, emitted, Budget(max_nodes=4000))
        over = over_approx_coverage(cfa, emitted)
        assert set(exact.covered_ids) <= set(over.covered_ids), name


@pytest.mark.parametrize("strategy", ["bfs", "dfs-postorder"])
def test_coverage_never_shrinks_as_the_verify_budget_grows(strategy):
    # A larger node budget explores a superset of the tree, so its
    # automaton accepts more: over coverage must not shrink, nor exact
    # coverage wherever both runs finished.
    shrunk = []
    exact_pairs = 0
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        before = None
        for max_nodes in (5, 10, 20, 40, 80, 160, 320):
            aa = explore(cfa, Spec.assertions(), Budget(max_nodes=max_nodes),
                         make_strategy(strategy)).aa
            over = set(over_approx_coverage(cfa, aa).covered_ids)
            exact = exact_coverage(cfa, aa, Budget(max_nodes=1000))
            now = (over, set(exact.covered_ids), exact.exhausted)
            if before is not None:
                if not before[0] <= now[0]:
                    shrunk.append((name, max_nodes, "over"))
                if not before[2] and not now[2]:
                    exact_pairs += 1
                    if not before[1] <= now[1]:
                        shrunk.append((name, max_nodes, "exact"))
            before = now
    assert shrunk == []
    assert exact_pairs >= 100


# Random automata --------------------------------------------------------------


def _random_automaton(rng, cfa):
    """1-4 states at random locations, each with ON lines on a random
    share of the statements into states or sinks, and an initial state
    that may be either sink; read back from its text."""
    names = [f"q{i}" for i in range(rng.randint(1, 4))]
    targets = names + [TRUE_STATE, FALSE_STATE]
    aa = AssumptionAutomaton(name="random", initial=rng.choice(targets))
    density = rng.random()
    for name in names:
        aa.add_state(name, rng.choice(cfa.nodes))
        for edge in cfa.edges:
            if rng.random() < density:
                aa.add_transition(name, edge.id, rng.choice(targets))
    return parse_aa(serialize_aa(aa))


def _random_sweep():
    """(fixture, executions per run, CFA, automaton, exact report, under
    report) for 1,500 seeded automata over the oracle corpus, each
    fixture taking 1, 2 and 10 executions in turn."""
    rng = Random(17)
    cfas = {name: fixture_cfa(name) for name in ORACLE_CORPUS}
    for i in range(1500):
        name = ORACLE_CORPUS[i % len(ORACLE_CORPUS)]
        max_cex = (1, 2, 10)[i // len(ORACLE_CORPUS) % 3]
        cfa = cfas[name]
        aa = _random_automaton(rng, cfa)
        budget = Budget(max_nodes=2000, max_counterexamples=max_cex)
        yield (name, max_cex, cfa, aa,
               exact_coverage(cfa, aa, budget,
                              nondet_domain=oracle.DEFAULT_DOMAIN),
               under_approx_coverage(cfa, aa, budget,
                                     nondet_domain=oracle.DEFAULT_DOMAIN))


def _walk(statements, aa):
    """The automaton state after each statement of a path, None where no
    ON line matches; the sinks and None absorb."""
    state, states = aa.initial, []
    for stmt_id in statements:
        if state not in (TRUE_STATE, FALSE_STATE, None):
            state = aa.transitions.get((state, stmt_id))
        states.append(state)
    return states


def test_random_automata_cover_what_the_oracle_walk_exercises():
    # Each recorded execution newly covers what the oracle's walk says it
    # exercises, less what earlier executions covered, and the three
    # answers nest.  The sweep must reach each case of that walk.
    seen = Counter()
    wrong = []
    for name, max_cex, cfa, aa, exact, under in _random_sweep():
        seen["initial __FALSE"] += aa.initial == FALSE_STATE
        for report in (exact, under):
            covered = set()
            for entry in report.per_execution:
                statements = entry["statements"]
                expected = oracle.exercised(statements, aa) - covered
                if entry["newly_covered"] != sorted(expected):
                    wrong.append((name, max_cex, report.mode, statements))
                covered |= expected
                states = _walk(statements, aa)
                seen["initial __TRUE"] += aa.initial == TRUE_STATE
                seen["__FALSE by an ON line"] += FALSE_STATE in states
                seen["__FALSE by no ON line"] += None in states
                seen["__TRUE mid-path"] += TRUE_STATE in states[:-1] and \
                    aa.initial != TRUE_STATE
                seen["a repeated statement"] += \
                    len(set(statements)) < len(statements)
        over = set(over_approx_coverage(cfa, aa).covered_ids)
        if not set(exact.covered_ids) <= over:
            wrong.append((name, max_cex, "over"))
        if not under.bug_found and \
                not set(under.covered_ids) <= set(exact.covered_ids):
            wrong.append((name, max_cex, "under"))
    assert wrong == []
    cases = ("initial __TRUE", "initial __FALSE", "__FALSE by an ON line",
             "__FALSE by no ON line", "__TRUE mid-path",
             "a repeated statement")
    assert [case for case in cases if not seen[case]] == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a cover on a dead "
                   "top can lose the only witness of a statement")
def test_exact_coverage_of_random_automata_matches_the_oracle():
    wrong = [(name, max_cex, aa) for name, max_cex, cfa, aa, exact, _
             in _random_sweep() if not exact.exhausted
             and set(exact.covered_ids) != oracle.exact_covered(
                 cfa, aa, oracle.DEFAULT_DOMAIN)]
    assert wrong == []


# Reports ----------------------------------------------------------------------


def test_report_dictionary_key_order_is_stable():
    report = exact_coverage(fixture_cfa("deadbranch.c"), _full_aa(), Budget())
    assert list(report.to_dict()) == [
        "program", "mode", "total_statements", "covered_count", "value",
        "executions_used", "bug_found", "exhausted", "covered_ids",
        "per_execution"]


def test_report_json_round_trips_and_is_stable():
    report = exact_coverage(fixture_cfa("deadbranch.c"), _full_aa(), Budget())
    text = report.to_json()
    assert text.endswith("\n")
    assert json.loads(text) == report.to_dict()
    again = exact_coverage(fixture_cfa("deadbranch.c"), _full_aa(), Budget())
    assert again.to_json() == text


def test_report_text_rendering():
    report = over_approx_coverage(fixture_cfa("bigloop.c"),
                                  parse_aa(golden("bigloop_partial.aa")))
    assert report.to_text() == (
        "program: bigloop\n"
        "mode: over\n"
        "statements covered: 5/7\n"
        "coverage: 0.714286\n"
        "executions used: 0\n"
        "bug found: no\n"
        "exhausted: no\n"
        "covered ids: 0 1 2 5 6\n")
