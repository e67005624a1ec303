"""Coverage metric: exercised sets, exact/under/over drivers, reports."""

from __future__ import annotations

import json

import pytest

from vericov import explorer
from vericov import (Budget, Cfa, Edge, Spec, Statement, StatementIdMismatch,
                     exact_coverage, exercised_within_analysis, explore,
                     is_covered, line_projection, make_strategy,
                     over_approx_coverage, parse_aa, source_to_cfa,
                     under_approx_coverage)
from vericov.automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton)
from vericov.cfa import HALT, ASSIGN

from conftest import ALL_FIXTURES, fixture_cfa, golden

import oracle


def _full_aa():
    return AssumptionAutomaton(name="all", initial=TRUE_STATE)


def _false_aa():
    return AssumptionAutomaton(name="none", initial=FALSE_STATE)


# Exercised-within-analysis ----------------------------------------------------


def test_exercised_collects_everything_under_true_initial():
    assert exercised_within_analysis((0, 1, 2), _full_aa()) == {0, 1, 2}


def test_exercised_empty_for_false_initial():
    assert exercised_within_analysis((0, 1), _false_aa()) == frozenset()
    assert exercised_within_analysis((), _false_aa()) == frozenset()


def test_exercised_stops_before_the_failing_statement():
    aa = parse_aa(golden("bigloop_partial.aa"))
    # q0 -0-> q1 -2-> q3 -3-> __FALSE: statement 3 is not collected.
    assert exercised_within_analysis((0, 2, 3), aa) == {0, 2}
    # An unmatched statement also fails the walk.
    assert exercised_within_analysis((0, 6), aa) == {0}


def test_exercised_keeps_collecting_inside_verified_region():
    cfa = source_to_cfa("int main() { int a = 1; a = 2; return 0; }")
    aa = AssumptionAutomaton(name="early", initial="q0")
    aa.add_state("q0", 0)
    aa.add_transition("q0", 0, TRUE_STATE)
    assert exercised_within_analysis((0, 1, 2), aa) == {0, 1, 2}
    del cfa


def test_exercised_deduplicates_repeated_statements():
    aa = parse_aa(golden("unroll5.aa"))
    assert exercised_within_analysis((0, 2, 2, 1), aa) == {0, 1, 2}


def test_is_covered_requires_phi_and_membership():
    aa = parse_aa(golden("bigloop_partial.aa"))
    assert is_covered(0, (0, 2, 3), aa, phi_holds=True)
    assert not is_covered(3, (0, 2, 3), aa, phi_holds=True)
    assert not is_covered(0, (0, 2, 3), aa, phi_holds=False)


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
    for name in ("deadbranch.c", "deadcode_nested.c", "chain_ifs.c",
                 "early_return.c"):
        report = exact_coverage(fixture_cfa(name), _full_aa(), Budget())
        assert report.rounds <= report.total_statements, name


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

    def counted_search(edges, variables, domain, mode, step_limit):
        searched.append((tuple(e.stmt.id for e in edges), mode))
        return search(edges, variables, domain, mode, step_limit)

    def counted_emit(*args, **kwargs):
        nonlocal emitted
        emitted += 1
        return emit(*args, **kwargs)

    monkeypatch.setattr(explorer, "_search_witness", counted_search)
    monkeypatch.setattr(explorer, "emit_assumption_automaton", counted_emit)
    report = under_approx_coverage(cfa, aa, Budget(max_nodes=600),
                                   nondet_domain=range(-2, 3))
    assert report.rounds > 1
    assert len(searched) == len(set(searched)) == 4
    assert emitted == 0


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


# Line projection --------------------------------------------------------------


def test_line_projection_marks_lines_with_covered_statements():
    source = ("int main() {\n"
              "  int a = 1;\n"
              "  a = 2;\n"
              "  return 0;\n"
              "}\n")
    cfa = source_to_cfa(source)
    covered, all_lines = line_projection(cfa, [0])
    assert covered == [2]
    assert all_lines == [2, 3, 4]
    covered, _ = line_projection(cfa, [0, 1, 2])
    assert covered == [2, 3, 4]


def test_line_projection_ignores_synthetic_statements():
    stmts = [Statement(0, ASSIGN, "a", None, 1),
             Statement(1, HALT, None, None, 0)]
    cfa = Cfa(name="tiny", nodes=[0, 1, 2],
              edges=[Edge(0, stmts[0], 2), Edge(2, stmts[1], 1)],
              entry=0, exit=1)
    covered, all_lines = line_projection(cfa, [0, 1])
    assert covered == [1]
    assert all_lines == [1]
