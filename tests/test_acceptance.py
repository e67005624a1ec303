"""Acceptance gate: one checked claim per criterion, one printed line each.

Each test prints `[criterion N] PASS/FAIL: detail` (visible even under
captured output) and then asserts.  Expected values are pinned exactly:
coverage sets compare with zero tolerance, ratios are exact binary
fractions, and wall-clock ceilings are hard limits.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout

from vericov import (Budget, Spec, compose, exact_coverage, explore,
                     make_strategy, over_approx_coverage, parse_aa,
                     reach_fixpoint, score, serialize_aa, source_to_cfa,
                     statement_ids, under_approx_coverage)
from vericov.automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton)
from vericov.cli import main

from conftest import (ALL_FIXTURES, FIXTURES, ORACLE_CORPUS, fixture_cfa,
                      golden)

import oracle

SMALL_DOMAIN = range(-2, 3)


def _declare(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _full_aa():
    return AssumptionAutomaton(name="all", initial=TRUE_STATE)


def _emit(cfa, max_nodes=None):
    budget = Budget() if max_nodes is None else Budget(max_nodes=max_nodes)
    return explore(cfa, Spec.assertions(), budget).aa


def test_criterion_1_exact_metric_matches_enumeration_oracle(capsys):
    pairs = 0
    worst = 0.0
    mismatches = []
    for name in ORACLE_CORPUS:
        started = time.monotonic()
        cfa = fixture_cfa(name)
        assert len(statement_ids(cfa)) <= 30, name
        automata = [_full_aa(), _emit(cfa, 25), _emit(cfa, 3000)]
        for aa in automata:
            expected = oracle.exact_covered(cfa, aa, SMALL_DOMAIN)
            report = exact_coverage(cfa, aa, Budget(max_nodes=4000),
                                    nondet_domain=SMALL_DOMAIN)
            pairs += 1
            if set(report.covered_ids) != expected:
                mismatches.append((name, sorted(expected),
                                   report.covered_ids))
        worst = max(worst, time.monotonic() - started)
    ok = not mismatches and worst <= 10.0 and len(ORACLE_CORPUS) >= 20
    _declare(capsys, 1, ok,
             f"{len(ORACLE_CORPUS)} programs / {pairs} automaton pairs "
             f"match the brute-force oracle exactly; worst program "
             f"{worst:.2f}s (limit 10s); mismatches: {mismatches}")


# Statements 1 and 2 need x == 100, outside every nondet domain used here.
TRUE_REPRO = ("int nondet();\nint main() {\n  int x = nondet();\n"
              "  if (x == 100) { x = 0; }\n  return 0;\n}\n")
TRUE_AUTOMATA = (
    "AUTOMATON true_after_0\nINITIAL q0\nSTATE q0 @L0\n  ON 0 -> __TRUE\nEND\n",
    "AUTOMATON true_initial\nINITIAL __TRUE\nEND\n",
)


def _random_aa(rng, cfa):
    """An automaton the text format accepts but vericov would not emit.

    1-4 states at random locations, random transitions over the program's
    statements into states or either sink; initial TRUE about 10% of the
    time.
    """
    if rng.random() < 0.1:
        return AssumptionAutomaton(name="random", initial=TRUE_STATE)
    names = [f"q{i}" for i in range(rng.randint(1, 4))]
    aa = AssumptionAutomaton(name="random", initial=names[0])
    for state in names:
        aa.add_state(state, rng.choice(cfa.nodes))
    ids = sorted(statement_ids(cfa))
    for state in names:
        for stmt_id in rng.sample(ids, rng.randint(0, len(ids))):
            aa.add_transition(state, stmt_id,
                              rng.choice(names + [FALSE_STATE, TRUE_STATE]))
    return aa


def _sandwich(cfa, aa, **domain):
    """The exact report, and the three covered sets unless u <= e <= o."""
    under = under_approx_coverage(
        cfa, aa, Budget(max_nodes=4000, max_counterexamples=5), **domain)
    exact = exact_coverage(
        cfa, aa, Budget(max_nodes=4000, max_counterexamples=10), **domain)
    over = over_approx_coverage(cfa, aa)
    u, e, o = (set(under.covered_ids), set(exact.covered_ids),
               set(over.covered_ids))
    return exact, None if u <= e <= o else (sorted(u), sorted(e), sorted(o))


def test_criterion_2_under_exact_over_sandwich(capsys):
    checked = 0
    violations = []
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        for max_nodes in (10, 50, 200, 1000):
            exact, bad = _sandwich(cfa, _emit(cfa, max_nodes))
            checked += 1
            if bad:
                violations.append((name, max_nodes, *bad))
            if exact.exhausted and name != "bigloop.c":
                violations.append((name, max_nodes, "exact did not finish"))
    cfa = source_to_cfa(TRUE_REPRO, name="true_repro")
    for text in TRUE_AUTOMATA:
        _exact, bad = _sandwich(cfa, parse_aa(text))
        if bad:
            violations.append(("true_repro", text.split()[1], *bad))
    random_checked = 0
    for name in ORACLE_CORPUS:
        cfa = fixture_cfa(name)
        for seed in range(10):
            _exact, bad = _sandwich(cfa, _random_aa(random.Random(seed), cfa),
                                    nondet_domain=SMALL_DOMAIN)
            random_checked += 1
            if bad:
                violations.append((name, f"seed {seed}", *bad))
    ok = not violations
    _declare(capsys, 2, ok,
             f"under <= exact <= over held on {checked} "
             f"fixture/budget combinations ({len(ALL_FIXTURES)} fixtures x "
             f"4 automaton budgets), {len(TRUE_AUTOMATA)} __TRUE automata "
             f"and {random_checked} random automata; "
             f"violations: {violations}")


def test_criterion_3_huge_loop_interrupted_run(capsys):
    started = time.monotonic()
    cfa = fixture_cfa("bigloop.c")
    result = explore(cfa, Spec.assertions(), Budget(max_nodes=10000))
    under = under_approx_coverage(cfa, result.aa, Budget(max_nodes=3000))
    exact = exact_coverage(cfa, result.aa, Budget(max_nodes=3000))
    over = over_approx_coverage(cfa, result.aa)
    elapsed = time.monotonic() - started
    ok = (result.verdict == "unknown"
          and result.counterexamples == []
          and under.value == 0.0
          and exact.value == 0.0
          and over.value > 0.0
          and elapsed <= 30.0)
    _declare(capsys, 3, ok,
             f"bound-1000000 loop at node budget 10000: verdict "
             f"{result.verdict}, under {under.value}, exact {exact.value}, "
             f"over {over.value:.4f} (> 0), {elapsed:.1f}s (limit 30s)")


def test_criterion_4_infeasible_branch_only_in_over(capsys):
    cfa = fixture_cfa("deadbranch.c")
    then_branch = {3, 4}  # assume x*x<0 and the assignment behind it
    leaked = []
    for max_nodes in (10, 50, 200, 1000, None):
        aa = _emit(cfa, max_nodes)
        under = under_approx_coverage(
            cfa, aa, Budget(max_nodes=4000, max_counterexamples=5))
        exact = exact_coverage(cfa, aa, Budget(max_nodes=4000))
        if then_branch & set(under.covered_ids):
            leaked.append(("under", max_nodes, under.covered_ids))
        if then_branch & set(exact.covered_ids):
            leaked.append(("exact", max_nodes, exact.covered_ids))
    over_full = over_approx_coverage(cfa, _emit(cfa))
    ok = not leaked and then_branch <= set(over_full.covered_ids)
    _declare(capsys, 4, ok,
             f"unreachable then-branch {sorted(then_branch)} absent from "
             f"under/exact at every budget; present in over of the full "
             f"run {over_full.covered_ids}; leaks: {leaked}")


def test_criterion_5_bug_short_circuits_generation(capsys):
    problems = []
    cfa = fixture_cfa("tinyloop_bug.c")
    first = under_approx_coverage(cfa, _full_aa(),
                                  Budget(max_counterexamples=10))
    again = under_approx_coverage(cfa, _full_aa(),
                                  Budget(max_counterexamples=10))
    if not (first.bug_found and first.executions_used == 0
            and first.rounds == 1):
        problems.append(("tinyloop_bug", first.bug_found,
                         first.executions_used, first.rounds))
    if first.to_json() != again.to_json():
        problems.append("tinyloop_bug not deterministic")

    cfa = fixture_cfa("bug_after_clean.c")
    first = under_approx_coverage(cfa, _full_aa(),
                                  Budget(max_counterexamples=10))
    again = under_approx_coverage(cfa, _full_aa(),
                                  Budget(max_counterexamples=10))
    if not (first.bug_found and first.executions_used == 1
            and first.executions_used < 10
            and first.covered_ids == [0, 1, 2, 5]):
        problems.append(("bug_after_clean", first.bug_found,
                         first.executions_used, first.covered_ids))
    if first.to_json() != again.to_json():
        problems.append("bug_after_clean not deterministic")
    ok = not problems
    _declare(capsys, 5, ok,
             f"assertion violation sets bug_found and stops generation "
             f"before the execution budget, byte-identically on repeat "
             f"runs; problems: {problems}")


def _two_region_case(k, big_then):
    assigns = "".join(f"  int s{i} = {i};\n" for i in range(k))
    source = ("int nondet();\n"
              "int main() {\n"
              "  int x = nondet();\n"
              "  if (x == 0) {\n  } else {\n  }\n"
              + assigns + "  return 0;\n}\n")
    side = "then" if big_then else "else"
    cfa = source_to_cfa(source, name=f"regions_k{k}_{side}")
    location = {edge.id: edge.src for edge in cfa.edges}
    aa = AssumptionAutomaton(name="half", initial="q0")
    aa.add_state("q0", location[0])
    aa.add_state("qsplit", location[1])
    aa.add_state("qdead", location[3])
    aa.add_transition("q0", 0, "qsplit")
    big, small = (1, 2) if big_then else (2, 1)
    chain = [f"qc{i}" for i in range(k + 1)]
    for i, state in enumerate(chain):
        aa.add_state(state, location.get(3 + i, location[3]))
    aa.add_transition("qsplit", big, chain[0])
    aa.add_transition("qsplit", small, "qdead")
    for i in range(k):
        aa.add_transition(chain[i], 3 + i, chain[i + 1])
    aa.add_transition(chain[k], 3 + k, TRUE_STATE)
    return cfa, aa


def test_criterion_6_scored_strategy_beats_baseline(capsys):
    started = time.monotonic()
    wins = ties = 0
    losses = []
    cases = [(3 + (i % 6), i >= 8) for i in range(12)]
    for k, big_then in cases:
        cfa, aa = _two_region_case(k, big_then)
        budget = Budget(max_nodes=2000, max_counterexamples=1)
        baseline = under_approx_coverage(
            cfa, aa, budget, strategy=make_strategy("dfs-postorder"))
        steered = under_approx_coverage(
            cfa, aa, budget,
            strategy=make_strategy("dfs-postorder+score"))
        got, ref = len(steered.covered_ids), len(baseline.covered_ids)
        if got > ref:
            wins += 1
        elif got == ref:
            ties += 1
        else:
            losses.append((cfa.name, baseline.covered_ids,
                           steered.covered_ids))
    elapsed = time.monotonic() - started
    not_worse = wins + ties
    ok = (len(cases) >= 10 and not_worse >= 0.8 * len(cases)
          and wins >= 1 and not losses and elapsed <= 60.0)
    _declare(capsys, 6, ok,
             f"scored traversal vs baseline on {len(cases)} two-region "
             f"programs at equal budgets: {wins} strictly better, {ties} "
             f"equal, {len(losses)} worse, {elapsed:.1f}s (limit 60s)")


def test_criterion_7_rounds_bounded_and_strictly_progressing(capsys):
    problems = []
    checked = 0
    for name in ORACLE_CORPUS:
        cfa = fixture_cfa(name)
        for aa in (_full_aa(), _emit(cfa, 50)):
            report = exact_coverage(cfa, aa, Budget(max_nodes=4000),
                                    nondet_domain=SMALL_DOMAIN)
            checked += 1
            if report.rounds > report.total_statements:
                problems.append((name, "rounds", report.rounds))
            # Every productive round strictly shrinks the uncovered set:
            # each recorded execution contributes fresh statements, and the
            # number of rounds exceeds productive executions by at most the
            # single closing round.
            if report.rounds > report.covered_count + 1:
                problems.append((name, "unproductive rounds", report.rounds,
                                 report.covered_count))
            if any(not entry["newly_covered"]
                   for entry in report.per_execution):
                problems.append((name, "stale execution recorded"))
    ok = not problems
    _declare(capsys, 7, ok,
             f"{checked} exact computations stayed within |statements| "
             f"rounds and every recorded execution covered something new; "
             f"problems: {problems}")


def test_criterion_8_hand_computed_products(capsys):
    chain = source_to_cfa("int main() { int a = 1; a = 2; return 0; }")
    diamond = source_to_cfa(
        "int nondet();\n"
        "int main() { int x = nondet(); if (x > 0) { x = 1; } "
        "else { x = 2; } return 0; }")
    cycle = source_to_cfa(
        "int main() { int i = 0; while (i < 2) { i = i + 1; } return 0; }")

    def build(cfa_states, transitions):
        aa = AssumptionAutomaton(name="case", initial="q0")
        for state, loc in cfa_states:
            aa.add_state(state, loc)
        for src, stmt, dst in transitions:
            aa.add_transition(src, stmt, dst)
        return aa

    cases = []
    aa = build([("q0", 0), ("q1", 2), ("q2", 3)],
               [("q0", 0, "q1"), ("q1", 1, "q2"), ("q2", 2, TRUE_STATE)])
    cases.append(("chain", chain, aa,
                  {"q0": 4, "q1": 3, "q2": 2, TRUE_STATE: 1}))

    aa = build([("q0", 0), ("q1", 2), ("q2", 4), ("q3", 5), ("q4", 3)],
               [("q0", 0, "q1"), ("q1", 1, "q2"), ("q1", 3, "q3"),
                ("q2", 2, "q4"), ("q3", 4, "q4"), ("q4", 5, TRUE_STATE)])
    cases.append(("diamond", diamond, aa,
                  {"q0": 6, "q1": 5, "q2": 3, "q3": 3, "q4": 2,
                   TRUE_STATE: 1}))

    aa = build([("q0", 0), ("qh", 2), ("qb", 4), ("qx", 3)],
               [("q0", 0, "qh"), ("qh", 1, "qx"), ("qh", 2, "qb"),
                ("qb", 3, "qh"), ("qx", 4, TRUE_STATE)])
    cases.append(("two-cycle", cycle, aa,
                  {"q0": 5, "qh": 4, "qb": 4, "qx": 2, TRUE_STATE: 1}))

    aa = build([("q0", 0), ("q1", 2), ("q2", 4), ("q4", 3)],
               [("q0", 0, "q1"), ("q1", 1, "q2"), ("q1", 3, FALSE_STATE),
                ("q2", 2, "q4"), ("q4", 5, TRUE_STATE)])
    cases.append(("false-cut", diamond, aa,
                  {"q0": 5, "q1": 4, "q2": 3, "q4": 2,
                   TRUE_STATE: 1, FALSE_STATE: 0}))

    aa = build([("q0", 0), ("q1", 2), ("qm", 4), ("q4", 3)],
               [("q0", 0, "q1"), ("q1", 1, "qm"), ("q1", 3, "qm"),
                ("qm", 2, "q4"), ("qm", 4, FALSE_STATE),
                ("q4", 5, TRUE_STATE)])
    cases.append(("multi-pairing", diamond, aa,
                  {"q0": 6, "q1": 5, "qm": 3, "q4": 2,
                   TRUE_STATE: 1, FALSE_STATE: 0}))

    failures = []
    for label, cfa, automaton, expected in cases:
        got = score(automaton, cfa)
        if got != expected:
            failures.append((label, expected, got))
    # Spot-check one reach set per shape against the hand derivation.
    reach = reach_fixpoint(compose(cases[4][2], diamond))
    if reach[("qm", 4)] != frozenset({4, 3, 1}):
        failures.append(("multi-pairing reach", reach[("qm", 4)]))
    if reach[("qm", 5)] != frozenset({5}):
        failures.append(("multi-pairing reach", reach[("qm", 5)]))
    ok = not failures
    _declare(capsys, 8, ok,
             f"{len(cases)} hand-computed products (chain, diamond, cycle, "
             f"FALSE cut, multi-pairing) give the derived scores, with "
             f"score(FALSE) = 0; failures: {failures}")


def test_criterion_9_serialization_identity_and_stable_reports(
        capsys, tmp_path):
    problems = []
    for name in ("trivial_true.aa", "bigloop_partial.aa", "unroll5.aa"):
        text = golden(name)
        if serialize_aa(parse_aa(text)) != text:
            problems.append((name, "round trip changed the text"))
    for fixture, max_nodes in (("deadbranch.c", None), ("bigloop.c", 200)):
        aa = _emit(fixture_cfa(fixture), max_nodes)
        once = serialize_aa(aa)
        if serialize_aa(parse_aa(once)) != once:
            problems.append((fixture, "emitted automaton not stable"))

    aa_path = tmp_path / "all.aa"
    aa_path.write_text("AUTOMATON all\nINITIAL __TRUE\nEND\n")
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["cover-exact", str(FIXTURES / "deadbranch.c"),
                         "--aa", str(aa_path), "--format", "structured"])
        if code != 0:
            problems.append(("cover-exact exit", code))
        outputs.append(buffer.getvalue())
    if outputs[0] != outputs[1]:
        problems.append("structured report not byte-stable")
    ok = not problems
    _declare(capsys, 9, ok,
             f"parse/serialize identity on 3 canonical automata plus 2 "
             f"emitted ones; structured coverage reports byte-identical "
             f"across runs; problems: {problems}")
