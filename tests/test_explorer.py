"""Exploration: replay, strategies, budgets, verdicts, automaton emission."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from vericov import (Budget, FALSE_STATE, Spec, exact_coverage, explore,
                     make_strategy, parse_aa, score, serialize_aa,
                     source_to_cfa, statement_ids, under_approx_coverage)
from vericov import explorer, heuristic, lang
from vericov.automaton import AssumptionAutomaton, TRUE_STATE
from vericov.cfa import (ASSERT, ASSIGN, ASSUME, HALT, Cfa, Edge,
                         live_variables)
from vericov.cli import EXIT_OK, main
from vericov.explorer import (COUNTEREXAMPLES, COVER, FEASIBLE, INCONCLUSIVE,
                              INFEASIBLE, SAFE, STATUS_COVERED,
                              STATUS_EXPANDED, STATUS_PRUNED, TOP,
                              UNASSIGNED, UNKNOWN,
                              ReplayResult, replay)

from conftest import ALL_FIXTURES, fixture_cfa, fixture_source, golden
from oracle import psi_holds
from test_digest import COVER_STRATEGIES, NODE_BUDGETS, VERIFY_STRATEGIES
from test_frontend_memory import large_source

RETURN_ONLY = "int main() { return 0; }"
DIAMOND = ("int nondet();\n"
           "int main() { int x = nondet(); if (x > 0) { x = 1; } "
           "else { x = 2; } return 0; }")
DEEP_BRANCHES = ("int nondet();\n"
                 "int main() { int x = nondet(); "
                 "if (x > 0) { x = 1; x = 2; } else { x = 3; x = 4; } "
                 "return 0; }")


def _ids(cfa, text):
    return next(e.id for e in cfa.edges if e.text() == text)


# Replay ----------------------------------------------------------------------


def test_replay_trivial_assume_feasible_with_empty_witness():
    cfa = source_to_cfa("int main() { if (1 == 1) { } else { } return 0; }")
    then_id = _ids(cfa, "1 == 1")
    halt_id = next(e.id for e in cfa.edges if e.kind == "halt")
    result = replay(cfa, (then_id, halt_id))
    assert result.verdict == FEASIBLE
    assert result.witness == {}


def test_replay_deadbranch_then_branch_infeasible():
    cfa = fixture_cfa("deadbranch.c")
    # x = nondet(); reached_dead_code = 0; z = 1; assume x*x<0; ...
    path = (0, 1, 2, 3, 4, 7)
    assert replay(cfa, path).verdict == INFEASIBLE
    assert replay(cfa, path, nondet_domain=range(-100, 101)).verdict == INFEASIBLE


def test_replay_finds_equality_witness():
    cfa = source_to_cfa(
        "int nondet();\n"
        "int main() { int x = nondet(); if (x == 3) { } else { } return 0; }")
    path = (0, _ids(cfa, "x == 3"), 3)
    result = replay(cfa, path)
    assert result.verdict == FEASIBLE
    assert result.witness == {0: 3}


def test_replay_first_witness_in_domain_order():
    cfa = source_to_cfa(
        "int nondet();\n"
        "int main() { int x = nondet(); if (x > 0) { } else { } return 0; }")
    result = replay(cfa, (0, _ids(cfa, "x > 0"), 3))
    assert result.verdict == FEASIBLE
    assert result.witness == {0: 1}  # smallest positive value in -8..8


def test_replay_backtracks_over_two_draws():
    cfa = source_to_cfa(
        "int nondet();\n"
        "int main() { int x = nondet(); int y = nondet(); "
        "if (x + y == 4) { } else { } return 0; }")
    result = replay(cfa, (0, 1, _ids(cfa, "x + y == 4"), 4),
                    nondet_domain=range(0, 3))
    assert result.verdict == FEASIBLE
    assert result.witness == {0: 2, 1: 2}  # first hit in lexicographic order


def test_replay_empty_domain_is_infeasible():
    cfa = source_to_cfa(
        "int nondet();\nint main() { int x = nondet(); return 0; }")
    assert replay(cfa, (0, 1), nondet_domain=()).verdict == INFEASIBLE


def test_replay_division_error_rejects_witness():
    cfa = source_to_cfa(
        "int nondet();\n"
        "int main() { int d = nondet(); int q = 1 / d; return 0; }")
    result = replay(cfa, (0, 1, 2))
    assert result.verdict == FEASIBLE
    assert result.witness == {0: -8}  # d = 0 skipped when reached
    assert replay(cfa, (0, 1, 2), nondet_domain=[0]).verdict == INFEASIBLE


def test_replay_step_limit_inconclusive():
    cfa = fixture_cfa("deadbranch.c")
    assert replay(cfa, (0, 1, 2, 3, 4, 7), step_limit=3).verdict == INCONCLUSIVE


def test_replay_rejects_disconnected_path():
    cfa = fixture_cfa("deadbranch.c")
    with pytest.raises(ValueError):
        replay(cfa, (1,))  # does not start at entry
    with pytest.raises(ValueError):
        replay(cfa, (99,))


# The chronological backtracking search that conflict-directed backjumping
# replaced, kept as the reference: it enumerates every combination of
# earlier choices before it gives up on a path.  Both references keep the
# rule of `replay`: every assume holds, and every assert except a final
# one, which must fail.


class _RefNeedChoice(Exception):
    pass


class _RefOutOfSteps(Exception):
    pass


def _reference_run_path(edges, choices, steps):
    """(status, used): "ok", "fail" or "need", and the choices consumed."""
    env = {}
    used = 0

    def next_nondet():
        nonlocal used
        if used < len(choices):
            used += 1
            return choices[used - 1]
        raise _RefNeedChoice

    last = len(edges) - 1
    for i, edge in enumerate(edges):
        if steps[0] <= 0:
            raise _RefOutOfSteps
        steps[0] -= 1
        try:
            if edge.kind == ASSIGN:
                env[edge.var] = lang.concrete_eval(edge.expr, env, next_nondet)
            elif edge.kind == ASSUME:
                if lang.concrete_eval(edge.expr, env, next_nondet) == 0:
                    return "fail", used
            elif edge.kind == ASSERT:
                holds = lang.concrete_eval(edge.expr, env, next_nondet) != 0
                if holds == (i == last):
                    return "fail", used
        except _RefNeedChoice:
            return "need", used
        except lang.EvalError:
            return "fail", used
    return "ok", used


def _reference_search(edges, domain, step_limit):
    domain = list(domain)
    steps = [step_limit]
    stack = []  # indices into domain, one per occurrence
    while True:
        choices = [domain[i] for i in stack]
        try:
            status, used = _reference_run_path(edges, choices, steps)
        except _RefOutOfSteps:
            return ReplayResult(INCONCLUSIVE)
        if status == "ok":
            return ReplayResult(FEASIBLE, dict(enumerate(choices)))
        if status == "need":
            if not domain:
                return ReplayResult(INFEASIBLE)
            stack.append(0)
            continue
        # Failure consumed `used` choices; later positions are irrelevant.
        del stack[used:]
        while stack and stack[-1] == len(domain) - 1:
            stack.pop()
        if not stack:
            return ReplayResult(INFEASIBLE)
        stack[-1] += 1


_OPERATORS = ["+", "-", "*", "/", "%", "<", "<=", "==", "!=",
              "&&", "||", "&&", "||"]
# Mostly short-circuits, so that which occurrence takes which choice
# index keeps changing with the values of earlier choices.
_SHORT_CIRCUIT_OPERATORS = ["&&", "||", "&&", "||", "&&", "||",
                            "+", "*", "==", "<", "%"]


def _random_program(rng, operators=_OPERATORS, nondet_share=0.45):
    """Straight-line declarations, then assignments, asserts and nested
    if/else over them; expressions mix several nondet() per statement,
    `&&`/`||` with nondet() on either side, and `/` and `%`."""
    names = []

    def expr(depth):
        if depth == 0 or rng.random() < 0.25:
            leaf = rng.random()
            if leaf < nondet_share:
                return "nondet()"
            if leaf < 0.8 and names:
                return rng.choice(names)
            return str(rng.randint(-2, 2))
        if rng.random() < 0.15:
            return f"{rng.choice('!-')}({expr(depth - 1)})"
        return (f"({expr(depth - 1)} {rng.choice(operators)} "
                f"{expr(depth - 1)})")

    lines = []
    for k in range(3):
        lines.append(f"int v{k} = {expr(2)};")
        names.append(f"v{k}")

    def block(depth, count):
        out = []
        for _ in range(count):
            r = rng.random()
            if r < 0.35:
                out.append(f"{rng.choice(names)} = {expr(2)};")
            elif r < 0.55:
                out.append(f"assert({expr(2)});")
            elif depth > 0:
                cond = expr(2)
                then = " ".join(block(depth - 1, 2))
                orelse = " ".join(block(depth - 1, 2))
                out.append(f"if ({cond}) {{ {then} }} else {{ {orelse} }}")
        return out

    lines += block(2, 4)
    return ("int nondet();\nint main() {\n  " + "\n  ".join(lines) +
            "\n  return 0;\n}\n")


def _random_path(rng, cfa):
    edges = []
    node = cfa.entry
    while node != cfa.exit:
        edge = rng.choice(cfa.out_edges(node))
        edges.append(edge)
        node = edge.dst
    return edges


# Seed, generator settings and domains of each corpus.  The second one is
# mostly `&&`/`||` with nondet() on either side, domains that contain 0.
_CORPORA = [
    (20240601, {}, [range(-1, 2), range(0, 2), range(-2, 3), [0]]),
    (20261018, {"operators": _SHORT_CIRCUIT_OPERATORS, "nondet_share": 0.6},
     [range(-1, 2), range(0, 2), [0, 1, 2], range(-2, 3)]),
]


def _corpus_searches(rng, generator, domains):
    """(source, cfa, edges, domain) for 120 random programs, two random
    paths into exit each, every one searched under two random domains, and
    when it has an assert, one prefix of it ending in an assert."""
    for _ in range(120):
        source = _random_program(rng, **generator)
        cfa = source_to_cfa(source)
        for _ in range(2):
            path = _random_path(rng, cfa)
            asserts = [i for i, e in enumerate(path) if e.kind == ASSERT]
            runs = [path, path]
            if asserts:
                runs.append(path[:rng.choice(asserts) + 1])
            for edges in runs:
                yield source, cfa, edges, rng.choice(domains)


def _ids_of(edges):
    return [e.id for e in edges]


def test_backjumping_matches_chronological_search():
    # Whenever the reference finishes within the step limit, the new search
    # returns the same verdict and witness, so it is never inconclusive
    # where the reference is not.
    for seed, generator, domains in _CORPORA:
        seen = {FEASIBLE: 0, INFEASIBLE: 0, INCONCLUSIVE: 0}
        mismatches = []
        for source, cfa, edges, domain in _corpus_searches(
                random.Random(seed), generator, domains):
            want = _reference_search(edges, domain, 1000)
            got = replay(cfa, _ids_of(edges), domain, 1000)
            seen[want.verdict] += 1
            if want.verdict == INCONCLUSIVE:
                continue
            if (got.verdict, got.witness) != (want.verdict, want.witness):
                mismatches.append((source, _ids_of(edges), list(domain),
                                   want, got))
        assert mismatches == [], seed
        assert min(seen[FEASIBLE], seen[INFEASIBLE]) >= 100, (seed, seen)


# The backjumping search as it was before runs resumed from checkpoints,
# kept as the reference for step counting: every run replays the path
# from entry and is charged one step per statement it executes.


def _restart_run_path(plan, choices, steps):
    env = {}
    depends = {}  # variable bit -> choices its value used
    used = 0

    def next_nondet():
        nonlocal used
        if used < len(choices):
            used += 1
            return choices[used - 1]
        raise _RefNeedChoice

    last = len(plan) - 1
    for i, (edge, reads, write) in enumerate(plan):
        if steps[0] <= 0:
            raise _RefOutOfSteps
        steps[0] -= 1
        kind = edge.kind
        if kind != ASSIGN and kind != ASSUME and kind != ASSERT:
            continue
        start = used
        try:
            value = lang.concrete_eval(edge.expr, env, next_nondet)
        except _RefNeedChoice:
            return "need", 0
        except lang.EvalError:
            value = None
        mask = (1 << used) - (1 << start)
        while reads:
            bit = reads & -reads
            mask |= depends[bit]
            reads ^= bit
        if value is None:
            return "fail", mask
        if kind == ASSIGN:
            env[edge.var] = value
            depends[write] = mask
        elif (value != 0) == (kind == ASSERT and i == last):
            return "fail", mask
    return "ok", 0


def _restart_search(edges, variables, domain, step_limit):
    """(result, steps consumed)."""
    domain = list(domain)
    plan = [(e, variables.reads[e.id], variables.writes[e.id]) for e in edges]
    steps = [step_limit]
    stack = []
    conflicts = []
    last_value = len(domain) - 1
    while True:
        choices = [domain[i] for i in stack]
        try:
            status, conflict = _restart_run_path(plan, choices, steps)
        except _RefOutOfSteps:
            return ReplayResult(INCONCLUSIVE), step_limit - steps[0]
        if status == "ok":
            return (ReplayResult(FEASIBLE, dict(enumerate(choices))),
                    step_limit - steps[0])
        if status == "need":
            if not domain:
                return ReplayResult(INFEASIBLE), step_limit - steps[0]
            stack.append(0)
            conflicts.append(0)
            continue
        while True:
            if not conflict:
                return ReplayResult(INFEASIBLE), step_limit - steps[0]
            level = conflict.bit_length() - 1
            del stack[level + 1:]
            del conflicts[level + 1:]
            conflicts[level] |= conflict ^ (1 << level)
            if stack[level] < last_value:
                stack[level] += 1
                break
            conflict = conflicts[level]


def test_checkpointed_runs_count_steps_like_restarts(monkeypatch):
    # Resuming from a checkpoint charges the skipped prefix, so verdict,
    # witness and steps consumed equal those of replaying every run from
    # entry at every step limit, `inconclusive` included.  Each search is
    # checked at the limits around the step count it needs, and at a few
    # random limits up to 300.
    steps_left = []  # of each run, as `_run_path` returns it
    run_path = explorer._run_path

    def recorded(*args):
        status, conflict, steps = run_path(*args)
        steps_left.append(steps)
        return status, conflict, steps

    monkeypatch.setattr(explorer, "_run_path", recorded)
    for seed, generator, domains in _CORPORA:
        rng = random.Random(seed)
        seen = {FEASIBLE: 0, INFEASIBLE: 0, INCONCLUSIVE: 0}
        mismatches = []
        for source, cfa, edges, domain in _corpus_searches(
                rng, generator, domains):
            variables = cfa.numbering()
            _, needed = _restart_search(edges, variables, domain, 300)
            limits = {1, needed - 1, needed, needed + 1,
                      *(rng.randint(1, 300) for _ in range(3))}
            for limit in sorted(x for x in limits if 1 <= x <= 300):
                want = _restart_search(edges, variables, domain, limit)
                got = replay(cfa, _ids_of(edges), domain, limit)
                got = got, limit - steps_left[-1]
                seen[want[0].verdict] += 1
                if (got[0].verdict, got[0].witness, got[1]) != \
                        (want[0].verdict, want[0].witness, want[1]):
                    mismatches.append((source, _ids_of(edges), list(domain),
                                       limit, want, got))
        assert mismatches == [], seed
        assert min(seen.values()) >= 100, (seed, seen)


# Spec and budget validation --------------------------------------------------


def test_cover_spec_requires_nonempty_remaining():
    aa = AssumptionAutomaton(name="x", initial=TRUE_STATE)
    with pytest.raises(ValueError):
        Spec.cover(frozenset(), aa)
    with pytest.raises(ValueError, match="non-empty remaining"):
        Spec(COVER, frozenset(), aa)


def test_spec_rejects_an_unknown_kind():
    # An unknown kind would watch nothing: `bug_simple.c` would read safe.
    with pytest.raises(ValueError, match="unknown spec kind 'assertion'"):
        Spec("assertion")


def test_cover_spec_requires_an_automaton():
    with pytest.raises(ValueError, match="and an automaton"):
        Spec(COVER, frozenset({0}))


def test_a_directly_built_spec_matches_its_constructor():
    aa = AssumptionAutomaton(name="x", initial=TRUE_STATE)
    assert Spec(COVER, {0, 1}, aa) == Spec.cover([1, 0], aa)
    assert Spec("assertions") == Spec.assertions()


@pytest.mark.parametrize("kwargs", [
    {"time_limit": 0}, {"time_limit": -1.0},
    {"max_nodes": 0}, {"max_nodes": -5},
    {"max_counterexamples": 0},
    # nan <= 0 and elapsed > nan are both false: taken, nan would mean no
    # limit at all.
    {"time_limit": float("nan")},
])
def test_budget_rejects_nonpositive_limits(kwargs):
    with pytest.raises(ValueError):
        Budget(**kwargs)


def test_make_strategy_validation():
    with pytest.raises(ValueError):
        make_strategy("random-walk")
    # The explorer works the scores out itself: a strategy is its name.
    assert make_strategy("dfs-postorder+score") == "dfs-postorder+score"


@pytest.mark.parametrize("args, error", [
    (("random",), ValueError),
])
def test_traversal_strategy_checks_itself(args, error):
    # `explore` checks the name it is given, so a bad one is never run as
    # dfs-postorder.
    with pytest.raises(error):
        explore(fixture_cfa("deadbranch.c"), Spec.assertions(), Budget(),
                *args)


def test_a_strategy_is_its_name():
    # A plain name is what `make_strategy` returns, so it gives the same
    # reports in `explore` and in both coverage computations.
    cfa = fixture_cfa("chain_ifs.c")
    aa = explore(cfa, Spec.assertions(), Budget(max_nodes=30)).aa
    for name in explorer.STRATEGIES:
        for compute in (exact_coverage, under_approx_coverage):
            assert compute(cfa, aa, Budget(), name).to_json() == \
                compute(cfa, aa, Budget(), make_strategy(name)).to_json()
        spec = Spec.cover(statement_ids(cfa), aa)
        plain = explore(cfa, spec, Budget(max_nodes=60), name)
        made = explore(cfa, spec, Budget(max_nodes=60), make_strategy(name))
        assert (plain.verdict, plain.counterexamples, plain.exercised) == \
            (made.verdict, made.counterexamples, made.exercised)
        assert serialize_aa(plain.aa) == serialize_aa(made.aa)


# Verdicts --------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: a search that finds "
                   "no witness in the nondet domain is read as a proof "
                   "that the assert holds")
def test_an_assert_failing_outside_the_domain_is_a_counterexample():
    # nondet() ranges over every integer, and x = 100 fails the assert;
    # the witness search tries only -8..8.
    cfa = source_to_cfa("int nondet();\n"
                        "int main() { int x = nondet(); assert(x != 100); "
                        "return 0; }")
    assert explore(cfa, Spec.assertions(), Budget()).verdict == \
        COUNTEREXAMPLES


def test_an_assert_search_that_runs_out_of_steps_is_not_safe(monkeypatch):
    # x = 3 fails the assert, but the path to it is about 200 statements
    # long, against a 100-step search: the search ends inconclusive, and
    # the verdict must not say the assert holds.
    monkeypatch.setattr(explorer, "DEFAULT_REPLAY_STEP_LIMIT", 100)
    cfa = source_to_cfa("int nondet();\nint main() { int x = nondet(); "
                        "int i = 0; while (i < 100) { i = i + 1; } "
                        "assert(x != 3); return 0; }")
    result = explore(cfa, Spec.assertions(), Budget())
    assert result.verdict == UNKNOWN
    assert result.counterexamples == []


def test_time_limit_stops_exploration_with_unknown(monkeypatch):
    # A clock that moves 5 s per reading: the limit has passed before the
    # root is expanded.
    clock = SimpleNamespace(monotonic=itertools.count(0, 5).__next__)
    monkeypatch.setattr(explorer, "time", clock)
    result = explore(fixture_cfa("bigloop.c"), Spec.assertions(),
                     Budget(time_limit=1.0))
    assert result.verdict == UNKNOWN
    assert result.art_stats.nodes_created == 1
    assert result.art_stats.nodes_frontier == 1


def test_time_limit_counts_narrowing(monkeypatch):
    # A resumed round whose narrowing takes 10 s of a 1 s limit creates no
    # node: the clock starts when `explore` is called.
    now = [0.0]
    monkeypatch.setattr(explorer, "time", SimpleNamespace(
        monotonic=lambda: now[0]))
    narrow = explorer._Explorer.narrow

    def slow_narrow(ex, spec):
        narrow(ex, spec)
        now[0] += 10

    monkeypatch.setattr(explorer._Explorer, "narrow", slow_narrow)
    cfa = fixture_cfa("chain_ifs.c")
    spec = Spec.cover(statement_ids(cfa), AssumptionAutomaton(
        name="all", initial=TRUE_STATE))
    first = explore(cfa, spec, Budget(max_nodes=4))
    assert first.verdict == UNKNOWN
    second = explore(cfa, spec, Budget(time_limit=1.0), resume=first)
    assert second.verdict == UNKNOWN
    assert second.art_stats.nodes_created == 0


def test_a_variable_read_before_assignment_is_refused():
    # x = y + 1; halt.  The CFA is valid, but y holds no value at entry.
    expr = source_to_cfa("int main() { int y = 0; int x = y + 1; return 0; }"
                         ).edges[1].expr
    cfa = Cfa("unset", [0, 1, 2], [Edge(0, 2, 0, ASSIGN, "x", expr),
                                   Edge(2, 1, 1, HALT)],
              entry=0, exit=1)
    cfa.validate()
    # x has its bit before y: y is read before any statement writes it.
    assert cfa.numbering().index == {"x": 0, "y": 1}
    assert cfa.numbering().reads == {0: 0b10, 1: 0}
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    with pytest.raises(ValueError, match="read before assignment: y$"):
        explore(cfa, Spec.assertions(), Budget())
    for coverage in (exact_coverage, under_approx_coverage):
        with pytest.raises(ValueError, match="read before assignment: y$"):
            coverage(cfa, aa, Budget())


def test_assertions_safe_when_no_asserts():
    result = explore(fixture_cfa("deadbranch.c"), Spec.assertions(), Budget())
    assert result.verdict == SAFE
    assert result.counterexamples == []
    # Both branches were expanded: x is unknown, so x*x<0 cannot be refuted.
    taken = {n.incoming_stmt for n in result.nodes}
    assert {3, 4, 5, 6} <= taken


def test_assertions_counterexample_with_witness():
    result = explore(fixture_cfa("assert_nondet.c"), Spec.assertions(),
                     Budget())
    assert result.verdict == COUNTEREXAMPLES
    assert len(result.counterexamples) == 1
    cex = result.counterexamples[0]
    assert cex.statements == (0, 1)  # x = nondet(); assert x != 1
    assert cex.witness == {0: 1}


def test_assertions_deep_counterexample():
    result = explore(fixture_cfa("bug_deep.c"), Spec.assertions(), Budget())
    assert result.verdict == COUNTEREXAMPLES
    assert result.counterexamples[0].statements == (0, 1, 2, 3)
    assert result.counterexamples[0].witness == {0: 0}  # a=0 -> b=2


def test_assertions_true_assert_is_safe():
    cfa = source_to_cfa("int main() { int x = 2; assert(x == 2); return 0; }")
    assert explore(cfa, Spec.assertions(), Budget()).verdict == SAFE


def test_equality_strengthening_proves_guarded_assert():
    result = explore(fixture_cfa("eq_strengthen.c"), Spec.assertions(),
                     Budget())
    assert result.verdict == SAFE


def test_equality_strengthening_accepts_negative_constants():
    # `-1` parses as unary minus on a literal; it must strengthen like `1`.
    def nodes(guard):
        body = "".join("  x = nondet();\n  if (%s) { y = y + 1; }\n" % guard
                       for _ in range(4))
        cfa = source_to_cfa("int nondet();\nint main() {\n  int y = 0;\n"
                            "  int x = 0;\n" + body + "  return 0;\n}\n")
        return explore(cfa, Spec.assertions(),
                       Budget(max_nodes=3000)).art_stats.nodes_created

    expected = nodes("x == 1")
    for guard in ("x == -1", "-1 == x", "!(x != -1)"):
        assert nodes(guard) == expected, guard


def test_branch_join_constants_prove_assert():
    result = explore(fixture_cfa("branches_nondet.c"), Spec.assertions(),
                     Budget())
    assert result.verdict == SAFE


def test_counterexample_cap_respected():
    cfa = source_to_cfa(
        "int nondet();\n"
        "int main() { int x = nondet(); "
        "if (x > 0) { assert(0); } else { assert(0); } return 0; }")
    capped = explore(cfa, Spec.assertions(), Budget(max_counterexamples=1))
    assert capped.verdict == COUNTEREXAMPLES
    assert len(capped.counterexamples) == 1
    both = explore(cfa, Spec.assertions(), Budget(max_counterexamples=10))
    assert len(both.counterexamples) == 2


def test_two_asserts_out_of_one_location_are_refused():
    # One expansion would ask both failing asserts, the second with the
    # counterexamples already full.  Only assumes branch, so `validate`
    # refuses the shape, and `run` alone checks the budget.
    zero = ((lang.LIT, 0),)
    edges = [Edge(0, 1, 0, ASSERT, None, zero),
             Edge(0, 1, 1, ASSERT, None, zero),
             Edge(1, 2, 2, HALT)]
    cfa = Cfa("two_asserts", [0, 1, 2], edges, entry=0, exit=2)
    with pytest.raises(ValueError, match="^statements 0 and 1 leave one"
                                         " location, and only assumes"
                                         " branch$"):
        cfa.validate()


def test_node_budget_yields_unknown():
    result = explore(fixture_cfa("bigloop.c"), Spec.assertions(),
                     Budget(max_nodes=1000))
    assert result.verdict == UNKNOWN
    assert result.counterexamples == []
    assert result.art_stats.nodes_frontier > 0


def test_unbounded_nondet_loop_converges_by_covering():
    result = explore(fixture_cfa("loop_nondet_cond.c"), Spec.assertions(),
                     Budget())
    assert result.verdict == SAFE
    assert result.art_stats.nodes_covered >= 1


def test_while_true_with_return_converges():
    result = explore(fixture_cfa("while_true_return.c"), Spec.assertions(),
                     Budget())
    assert result.verdict == SAFE


def test_expansion_in_progress_completes():
    # Popping the split node creates both branch children even though the
    # first child already exhausts the node budget.
    result = explore(source_to_cfa(DIAMOND), Spec.assertions(),
                     Budget(max_nodes=3))
    assert result.verdict == UNKNOWN
    assert result.art_stats.nodes_created == 4
    assert {n.incoming_stmt for n in result.nodes} == {None, 0, 1, 3}


# Strategies ------------------------------------------------------------------


def _creation_trace(strategy_kind):
    cfa = source_to_cfa(DEEP_BRANCHES)
    result = explore(cfa, Spec.assertions(), Budget(),
                     strategy=make_strategy(strategy_kind))
    return [(n.parent, n.incoming_stmt) for n in result.nodes]


def test_bfs_expands_level_by_level():
    trace = _creation_trace("bfs")
    # After the split (node 1 -> children 2,3), bfs expands node 2 then
    # node 3; the sixth created node is a child of node 3.
    assert trace[5][0] == 3


def test_dfs_dives_down_one_branch():
    trace = _creation_trace("dfs-postorder")
    # dfs expands node 2's subtree first: the sixth node descends from 4.
    assert trace[5][0] == 4


def test_chain_program_same_order_for_all_strategies():
    cfa = source_to_cfa("int main() { int a = 1; a = 2; return 0; }")
    traces = []
    for kind in ("bfs", "dfs-postorder"):
        result = explore(cfa, Spec.assertions(), Budget(),
                         strategy=make_strategy(kind))
        traces.append([(n.parent, n.incoming_stmt) for n in result.nodes])
    assert traces[0] == traces[1]


def test_score_tie_break_picks_higher_scored_branch():
    # Empty-branch split: both assume edges land on the same location, so
    # postorder ties and only the score decides which region is explored
    # first. The automaton routes the else side into the larger region,
    # and the explorer scores the spec's own automaton.
    cfa = source_to_cfa(
        "int nondet();\n"
        "int main() { int x = nondet(); if (x > 0) { } else { } "
        "int a = 1; int b = 2; return 0; }")
    aa = AssumptionAutomaton(name="regions", initial="q0")
    aa.add_state("q0", 0)
    aa.add_state("qsplit", 2)
    aa.add_state("qsmall", 3)
    aa.add_state("qbig", 3)
    aa.add_transition("q0", 0, "qsplit")
    aa.add_transition("qsplit", 1, "qsmall")
    aa.add_transition("qsplit", 2, "qbig")
    for stmt in (3, 4, 5):
        aa.add_transition("qbig", stmt, "qbig")
    scores = score(aa, cfa)
    assert scores["qbig"] > scores["qsmall"]
    spec = Spec.cover(frozenset(range(6)), aa)
    result = explore(cfa, spec, Budget(max_counterexamples=1),
                     strategy=make_strategy("dfs-postorder+score"))
    assert result.verdict == COUNTEREXAMPLES
    # The else-assume (statement 2) is on the first generated execution.
    assert 2 in result.counterexamples[0].statements

    baseline = explore(cfa, spec, Budget(max_counterexamples=1),
                       strategy=make_strategy("dfs-postorder"))
    assert 1 in baseline.counterexamples[0].statements


def _score_calls(monkeypatch):
    """The arguments of each `heuristic.score` call from here on."""
    calls, real = [], heuristic.score

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(heuristic, "score", spy)
    return calls


def _tree(result):
    return [(n.parent, n.incoming_stmt, n.status) for n in result.nodes]


def test_unscored_states_default_to_zero(monkeypatch):
    # Under an assertions spec no node has an automaton state to score, so
    # nothing is scored and the tree is dfs-postorder's.
    calls = _score_calls(monkeypatch)
    cfa = fixture_cfa("chain_ifs.c")
    result = explore(cfa, Spec.assertions(), Budget(),
                     strategy=make_strategy("dfs-postorder+score"))
    assert result.verdict == SAFE
    assert calls == []
    assert _tree(result) == _tree(explore(cfa, Spec.assertions(), Budget()))


def test_scores_come_from_the_spec_automaton_once_per_explorer(monkeypatch):
    # The coverage rounds resume one explorer, which scores the spec's
    # automaton at its first ordered fork.
    calls = _score_calls(monkeypatch)
    cfa = fixture_cfa("chain_ifs.c")
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    report = under_approx_coverage(cfa, aa, Budget(),
                                   make_strategy("dfs-postorder+score"))
    assert report.rounds > 1
    assert len(calls) == 1
    assert calls[0][0] is aa and calls[0][1] is cfa


@pytest.mark.parametrize("kind, source", [
    ("bfs", fixture_source("chain_ifs.c")),
    ("dfs-postorder", fixture_source("chain_ifs.c")),
    ("dfs-postorder+score", "int main() { int a = 1; a = 2; return 0; }"),
])
def test_only_a_scored_fork_scores_the_automaton(monkeypatch, kind, source):
    calls = _score_calls(monkeypatch)
    cfa = source_to_cfa(source)
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    under_approx_coverage(cfa, aa, Budget(), make_strategy(kind))
    assert calls == []


# Automaton emission ----------------------------------------------------------


def test_safe_exploration_emits_false_free_automaton():
    result = explore(source_to_cfa(RETURN_ONLY), Spec.assertions(), Budget())
    assert result.verdict == SAFE
    assert psi_holds((0,), result.aa) is True
    assert "__FALSE" not in serialize_aa(result.aa)


def test_interrupted_diamond_sends_both_assumes_to_false():
    result = explore(source_to_cfa(DIAMOND), Spec.assertions(),
                     Budget(max_nodes=3))
    text = serialize_aa(result.aa)
    assert "ON 1 -> __FALSE" in text
    assert "ON 3 -> __FALSE" in text
    assert psi_holds((0,), result.aa) is True
    assert psi_holds((0, 1), result.aa) is False
    assert psi_holds((0, 3), result.aa) is False


def test_automaton_emitted_once_on_first_read(monkeypatch):
    emitted = 0
    emit = explorer.emit_assumption_automaton

    def counted(*args, **kwargs):
        nonlocal emitted
        emitted += 1
        return emit(*args, **kwargs)

    monkeypatch.setattr(explorer, "emit_assumption_automaton", counted)
    result = explore(source_to_cfa(DIAMOND), Spec.assertions(),
                     Budget(max_nodes=3))
    assert emitted == 0
    assert result.aa is result.aa
    assert emitted == 1
    assert serialize_aa(result.aa) == serialize_aa(emit(
        result.nodes, result.cfa, result.verdict))


def test_unexpanded_root_gives_false_initial():
    result = explore(source_to_cfa(DIAMOND), Spec.assertions(),
                     Budget(max_nodes=1))
    assert result.aa.initial == FALSE_STATE
    assert psi_holds((), result.aa) is False


def test_merged_states_take_the_first_target_in_parent_order():
    # Nodes 1 and 2 agree, so they merge into q1.  Node 2 was expanded
    # first and its child has the lower id, yet node 1's child decides
    # q1's transition on statement 5: parents are read in id order.
    tree = explorer._Tree()
    for location, parent, stmt, value in [(0, None, None, 0), (2, 0, 0, 1),
                                          (2, 0, 1, 1), (3, 2, 5, 2),
                                          (3, 1, 5, 3)]:
        tree.add(location, (value,), parent, stmt, STATUS_EXPANDED)
    aa = explorer.emit_assumption_automaton(
        tree, source_to_cfa(RETURN_ONLY), UNKNOWN)
    assert aa.location_of == {"q0": 0, "q1": 2, "q2": 3, "q3": 3}
    assert aa.transitions == {("q0", 0): "q1", ("q0", 1): "q1",
                              ("q1", 5): "q3"}


def test_emitted_name_is_one_token():
    cfa = source_to_cfa(RETURN_ONLY, name="my prog\t 2")
    result = explore(cfa, Spec.assertions(), Budget())
    assert result.aa.name == "my_prog_2"
    assert parse_aa(serialize_aa(result.aa)).name == "my_prog_2"


def test_a_nameless_program_emits_a_named_automaton():
    # `serialize_aa` refuses an empty name, which `parse_aa` could not read.
    cfa = source_to_cfa("int main() { int x = 1; return 0; }", name="")
    aa = explore(cfa, Spec.assertions(), Budget()).aa
    assert aa.name == "_"
    assert parse_aa(serialize_aa(aa)) == aa


# The state merge as first written: one dict keyed by location, valuation,
# automaton state and tracked set, so every expanded node's whole valuation
# is hashed.  `emit_assumption_automaton` must give exactly its automaton.


def _reference_emit(nodes, cfa, verdict):
    aa = AssumptionAutomaton(name=explorer._WHITESPACE.sub("_", cfa.name),
                             initial=FALSE_STATE)
    status, location = nodes.status, nodes.location
    if not status or status[0] != STATUS_EXPANDED:
        return aa
    state_of = [None] * len(status)
    state_name = {}
    expanded = [i for i, s in enumerate(status) if s == STATUS_EXPANDED]
    for i in expanded:
        key = (location[i], nodes.valuation[i], nodes.aa_state[i],
               nodes.tracked[i])
        name = state_name.get(key)
        if name is None:
            name = state_name[key] = f"q{len(state_name)}"
            aa.location_of[name] = location[i]
        state_of[i] = name
    aa.initial = state_of[0]
    transitions = aa.transitions
    for child in sorted(range(1, len(status)), key=nodes.parent.__getitem__):
        src = state_of[nodes.parent[child]]
        if src is None:
            continue
        key = (src, nodes.incoming[child])
        if transitions.get(key, FALSE_STATE) == FALSE_STATE:
            target = child
            while status[target] == STATUS_COVERED:
                target = nodes.covered_by[target]
            transitions[key] = state_of[target] or FALSE_STATE
    if verdict == SAFE:
        for i in expanded:
            for edge in cfa.out_edges(location[i]):
                key = (state_of[i], edge.id)
                if transitions.get(key, FALSE_STATE) == FALSE_STATE:
                    transitions[key] = TRUE_STATE
    return aa


def _emissions_match_the_reference(runs):
    """How many explores of (cfa, spec, budget, strategy, domain) emit
    exactly the reference automaton; fails on the first that does not."""
    emitted = 0
    for cfa, spec, budget, strategy, domain in runs:
        result = explore(cfa, spec, budget, strategy, domain)
        want = _reference_emit(result.nodes, cfa, result.verdict)
        assert serialize_aa(result.aa) == serialize_aa(want), cfa.name
        emitted += 1
    return emitted


def _verify_and_cover_runs(cfa, budgets, verify_strategies,
                           domain=explorer.DEFAULT_NONDET_DOMAIN):
    """`verify` under each strategy and budget, then a cover explore of
    every statement under each cover strategy on its automaton."""
    for max_nodes in budgets:
        budget = Budget(max_nodes=max_nodes)
        for kind in verify_strategies:
            strategy = make_strategy(kind)
            yield cfa, Spec.assertions(), budget, strategy, domain
            aa = explore(cfa, Spec.assertions(), budget, strategy, domain).aa
            for cover in COVER_STRATEGIES:
                yield (cfa, Spec.cover(statement_ids(cfa), aa), budget,
                       make_strategy(cover), domain)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_emission_matches_the_reference_on_a_fixture(name):
    runs = _verify_and_cover_runs(fixture_cfa(name), map(int, NODE_BUDGETS),
                                  VERIFY_STRATEGIES)
    assert _emissions_match_the_reference(runs) == 16


def test_emission_matches_the_reference_on_random_programs():
    runs = [run for seed, generator, domains in _CORPORA
            for rng in [random.Random(seed)] for _ in range(24)
            for run in _verify_and_cover_runs(
                source_to_cfa(_random_program(rng, **generator)), [None],
                VERIFY_STRATEGIES, rng.choice(domains))]
    assert _emissions_match_the_reference(runs) == 2 * 24 * 8


def test_emission_after_narrowing_matches_the_reference():
    # Exact-coverage rounds, each emitting before the next resumes it.  A
    # round's narrowing may prune a node the round before expanded; the
    # children that node keeps have no state to leave from.
    rounds = narrowed = 0
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        for max_nodes in (3, 5, 8, 12, 20, 60):
            aa = explore(cfa, Spec.assertions(), Budget(max_nodes=max_nodes)).aa
            budget = Budget(max_nodes=max_nodes, max_counterexamples=1)
            remaining = statement_ids(cfa)
            result, expanded = None, []
            while remaining:
                result = explore(cfa, Spec.cover(remaining, aa), budget,
                                 resume=result)
                rounds += 1
                status = result.nodes.status
                narrowed += any(status[i] == STATUS_PRUNED for i in expanded)
                want = _reference_emit(result.nodes, cfa, result.verdict)
                assert serialize_aa(result.aa) == serialize_aa(want), name
                if result.bug_found or not result.counterexamples:
                    break
                expanded = [i for i, s in enumerate(status)
                            if s == STATUS_EXPANDED]
                remaining -= result.exercised[0]
    assert rounds > len(ALL_FIXTURES) * 6  # some runs resume
    assert narrowed


@pytest.mark.parametrize("blocks", [300, 600])
def test_emission_matches_the_reference_on_a_wide_program(blocks):
    cfa = source_to_cfa(large_source(blocks), name="large")
    runs = _verify_and_cover_runs(cfa, [300], ["dfs-postorder"])
    assert _emissions_match_the_reference(runs) == 4


def _bigloop_accepted_unrollings(max_nodes):
    cfa = fixture_cfa("bigloop.c")
    result = explore(cfa, Spec.assertions(), Budget(max_nodes=max_nodes))
    assert result.verdict == UNKNOWN
    accepted = []
    for k in range(0, 80):
        path = (0,) + (2, 3, 4) * k
        if psi_holds(path, result.aa):
            accepted.append(k)
    return accepted


def test_bigloop_interrupted_automaton_accepts_a_prefix_of_unrollings():
    accepted = _bigloop_accepted_unrollings(60)
    # Exactly the iterations reached before the cut, with no gaps.
    assert accepted == list(range(len(accepted)))
    assert 1 <= len(accepted) < 60


def test_bigloop_deeper_budget_accepts_more_unrollings():
    shallow = _bigloop_accepted_unrollings(30)
    deep = _bigloop_accepted_unrollings(90)
    assert len(deep) > len(shallow)


def test_node_budget_prefix_monotone():
    # A larger node budget extends the creation order without reordering.
    def trace(max_nodes):
        result = explore(fixture_cfa("bigloop.c"), Spec.assertions(),
                         Budget(max_nodes=max_nodes))
        return [(n.cfa_node, n.parent, n.incoming_stmt) for n in result.nodes]

    small, large = trace(20), trace(60)
    assert small == large[:len(small)]


def test_emitted_automaton_paths_exist_in_tree():
    # Interrupted run, concrete program: every ψ-satisfying entry path of
    # the automaton is a root path of the generating tree.
    cfa = fixture_cfa("bigloop.c")
    result = explore(cfa, Spec.assertions(), Budget(max_nodes=40))
    tree_paths = set()
    for node in result.nodes:
        path = []
        cur = node
        while cur.incoming_stmt is not None:
            path.append(cur.incoming_stmt)
            cur = result.nodes[cur.parent]
        tree_paths.add(tuple(reversed(path)))

    stack = [(cfa.entry, ())]
    checked = 0
    while stack and checked < 200:
        node, path = stack.pop()
        if len(path) > 12:
            continue
        if path and psi_holds(path, result.aa):
            checked += 1
            assert path in tree_paths
        for edge in cfa.out_edges(node):
            stack.append((edge.dst, path + (edge.id,)))
    assert checked > 0


def test_exploration_deterministic():
    def snapshot():
        result = explore(fixture_cfa("loop_nondet_bounded.c"),
                         Spec.assertions(), Budget())
        return (serialize_aa(result.aa),
                [(n.cfa_node, n.parent, n.incoming_stmt, n.status)
                 for n in result.nodes],
                result.counterexamples)

    assert snapshot() == snapshot()


def test_cover_spec_with_false_initial_is_immediately_safe():
    cfa = source_to_cfa(RETURN_ONLY)
    aa = AssumptionAutomaton(name="none", initial=FALSE_STATE)
    result = explore(cfa, Spec.cover(frozenset({0}), aa), Budget())
    assert result.verdict == SAFE
    assert result.counterexamples == []
    assert result.art_stats.nodes_expanded == 0


def test_cover_spec_finds_phi_clean_exit_executions():
    cfa = fixture_cfa("deadbranch.c")
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    result = explore(cfa, Spec.cover(frozenset(range(8)), aa),
                     Budget(max_counterexamples=10))
    assert result.verdict == COUNTEREXAMPLES
    # Only the else side is feasible.
    for cex in result.counterexamples:
        assert 3 not in cex.statements
        assert cex.statements[-1] == 7


def test_cover_spec_never_reports_assert_violating_exit():
    cfa = fixture_cfa("tinyloop_bug.c")
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    result = explore(cfa, Spec.cover(frozenset(range(7)), aa), Budget())
    # The only terminating execution crosses assert(0): not φ-clean.
    assert result.counterexamples == []
    assert result.verdict == SAFE


def test_cover_spec_bug_short_circuit():
    cfa = fixture_cfa("tinyloop_bug.c")
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    result = explore(cfa, Spec.cover(frozenset(range(7)), aa,
                                     stop_on_violation=True), Budget())
    assert result.verdict == UNKNOWN
    assert result.bug_found
    assert result.bug_execution is not None
    assert result.bug_execution.statements[-1] == 5  # the assert edge


def test_resume_narrows_one_tree_and_checks_what_it_resumes():
    cfa = fixture_cfa("deadbranch.c")
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    first = explore(cfa, Spec.cover(frozenset(range(8)), aa),
                    Budget(max_nodes=3))
    assert first.verdict == UNKNOWN
    assert len(first.nodes) == first.art_stats.nodes_created == 3
    with pytest.raises(ValueError):  # a larger remaining set
        explore(cfa, Spec.cover(frozenset(range(9)), aa), Budget(),
                resume=first)
    with pytest.raises(ValueError):
        explore(cfa, Spec.cover(frozenset({3, 4}), aa), Budget(),
                make_strategy("bfs"), resume=first)
    with pytest.raises(ValueError):
        explore(cfa, Spec.cover(frozenset({3, 4}), aa), Budget(),
                nondet_domain=range(3), resume=first)
    second = explore(cfa, Spec.cover(frozenset({3, 4}), aa), Budget(),
                     resume=first)
    # {3, 4} lies on the infeasible then-branch: nothing to find.
    assert second.verdict == SAFE
    assert second.nodes is first.nodes
    assert second.art_stats.nodes_created == len(second.nodes) - 3
    assert all(node.tracked <= {3, 4} for node in second.nodes)
    with pytest.raises(ValueError):  # resumed already
        explore(cfa, Spec.cover(frozenset({3}), aa), Budget(), resume=first)
    with pytest.raises(ValueError):  # no tree to resume
        explore(cfa, Spec.cover(frozenset({3}), aa), Budget(),
                resume=explore(cfa, Spec.assertions(), Budget()))


def test_stats_costs_add_up():
    result = explore(fixture_cfa("deadbranch.c"), Spec.assertions(), Budget())
    stats = result.art_stats
    assert stats.nodes_created == len(result.nodes)
    assert (stats.nodes_expanded + stats.nodes_frontier +
            stats.nodes_covered + stats.nodes_pruned) == stats.nodes_created
    assert stats.nodes_frontier == 0  # run to completion


# Cover check -----------------------------------------------------------------

# The README quick-start program: one live nondet() beside a long loop.
SPIN = """int nondet();

int main() {
  int n = nondet();
  int i = 0;
  while (i < 1000000) {
    i = i + 1;
  }
  if (n == 0) {
    n = 1;
  }
  assert(n != 0);
  return 0;
}
"""

# Two live nondet() variables, and a dead one that is a fresh top on one
# branch of the loop body and concrete on the other, so that bfs covers by
# dead-variable subsumption.
SPIN_TWO_NONDET = """int nondet();

int main() {
  int n = nondet();
  int m = nondet();
  int i = 0;
  int j = 0;
  while (i < 1000000) {
    i = i + 1;
    if (nondet()) {
      j = nondet();
    } else {
      j = i;
    }
  }
  if (n == 0) {
    n = 1;
  }
  if (m == 0) {
    m = 1;
  }
  assert(n != 0);
  assert(m != 0);
  return 0;
}
"""

# At L4 every path has a constrained top on the live `x`, so no node there
# covers another.  After the assert `x` is dead, and under bfs the three
# paths reach L9 in the order then (d a fresh top), else-if, else (d = 1 on
# both).  Tracking statements 0 and 5 stops the then-node covering the
# else-if node; both could cover the else node, which must get the equal
# one.
JOINS = """int nondet();

int main() {
  int x = nondet();
  int d = 0;
  if (x > 0) {
    d = nondet();
  } else {
    if (x < 0) {
      d = 1;
    } else {
      d = 1;
    }
  }
  assert(x != 5);
  return 0;
}
"""


# Every variable is live at the loop head L3, so the head's cover groups
# are keyed by whole valuations.  x is a fresh top there; the guard
# `x > 0` reads it, so it is a constrained top, and still live, until
# `x = nondet()` ends the body.  An iteration that leaves y as it found it
# reaches the head in a state an earlier head node covers.
LIVE_LOOP = """int nondet();

int main() {
  int x = nondet();
  int y = 0;
  while (nondet()) {
    if (x > 0) {
      y = 1 - y;
    }
    if (x == y) {
      y = 0;
    }
    x = nondet();
  }
  assert(x != y);
  return 0;
}
"""

# At L3, after the outer if, x is live.  The then-path reaches it first
# with x a constrained top, a node with no group key.  The two else-paths
# follow with x = 1: the first is keyed, and it covers the second.
UNKEYED_FIRST = """int nondet();

int main() {
  int x = nondet();
  if (x > 0) {
  } else {
    if (x < 0) {
      x = 1;
    } else {
      x = 1;
    }
  }
  assert(x != 5);
  return 0;
}
"""


def _reference_covers(spec, live, j, v):
    """The strict cover policy, checked on every variable."""
    if spec.kind == COVER and not j.tracked >= v.tracked:
        return False
    live_here = live[v.cfa_node]
    for i, (jv, vv) in enumerate(zip(j.valuation, v.valuation)):
        if (jv is UNASSIGNED) != (vv is UNASSIGNED):
            return False
        if live_here >> i & 1:
            if vv is TOP and jv is TOP:
                if not (v.fresh >> i & 1 and j.fresh >> i & 1):
                    return False
            elif vv is TOP or jv is TOP or vv != jv:
                return False
        elif jv is not TOP and (vv is TOP or jv != vv):
            return False
    return True


def _reference_coverers(cfa, spec, nodes):
    """Per node of a tree one explore built, its coverer under a
    brute-force scan of every node created before it at its location and
    automaton state that is neither pruned nor covered: equal valuations
    first, then the others, each in creation order; None when none covers
    it.  Beside it, the `_reference_covers` calls the scan made.  One
    explore decides a node's cover as it creates the node, and prunes a
    node only then."""
    live = live_variables(cfa)
    buckets = {}
    coverers = []
    for v in nodes:
        coverer, probes = None, 0
        if v.status != STATUS_PRUNED:
            bucket = buckets.setdefault((v.cfa_node, v.aa_state), [])
            scan = [j for j in bucket if j.valuation == v.valuation] + \
                [j for j in bucket if j.valuation != v.valuation]
            for j in scan:
                probes += 1
                if _reference_covers(spec, live, j, v):
                    coverer = j.id
                    break
            if coverer is None:
                bucket.append(v)
        coverers.append((coverer, probes))
    return coverers


def _unkeyed_first_place(cfa, nodes):
    """The first three nodes at L3 of UNKEYED_FIRST, if they are a node
    with a constrained top on the live x, a keyed node and a node that the
    keyed node covers; otherwise None."""
    at = [n for n in nodes if n.cfa_node == 3][:3]
    if len(at) < 3:
        return None
    first, keyed, covered = at
    x = cfa.numbering().index["x"]
    if first.valuation[x] is TOP and not first.fresh >> x & 1 and \
            keyed.valuation[x] is not TOP and \
            covered.status == STATUS_COVERED and \
            covered.covered_by == keyed.id:
        return first, keyed, covered
    return None


def _cover_runs(cfa, aa, extra_specs):
    """(label, spec, budget, strategy) for every strategy, every spec and
    several node budgets."""
    strategies = [make_strategy("bfs"), make_strategy("dfs-postorder"),
                  make_strategy("dfs-postorder+score")]
    specs = [Spec.assertions(), Spec.cover(statement_ids(cfa), aa),
             *extra_specs]
    for strategy in strategies:
        for spec in specs:
            for max_nodes in (40, 250, 800):
                yield ((strategy, spec.kind, max_nodes), spec,
                       Budget(max_nodes=max_nodes), strategy)


def test_cover_groups_choose_the_reference_coverer(monkeypatch):
    # Each node's status and coverer equal those of a brute-force scan of
    # every indexed node at the location: equal valuations first, then
    # the others, each in insertion order.  Where the first node at a
    # location has no group key, the next keyed node takes its place.
    probes = []  # (coverer candidate, node) of each `_covers` call
    covers = explorer._Explorer._covers

    def recorded_covers(self, j, v):
        probes.append((j, v))
        return covers(self, j, v)

    monkeypatch.setattr(explorer._Explorer, "_covers", recorded_covers)
    programs = [(name, fixture_cfa(name), []) for name in ALL_FIXTURES]
    programs.append(("spin_two_nondet",
                     source_to_cfa(SPIN_TWO_NONDET, name="spin_two_nondet"),
                     []))
    programs.append(("joins", source_to_cfa(JOINS, name="joins"),
                     [Spec.cover({0, 5}, AssumptionAutomaton(
                         name="all", initial=TRUE_STATE))]))
    programs.append(("live_loop", source_to_cfa(LIVE_LOOP, name="live_loop"),
                     []))
    programs.append(("unkeyed_first",
                     source_to_cfa(UNKEYED_FIRST, name="unkeyed_first"), []))
    mismatches = []
    covered = by_subsumption = unkeyed_first = 0
    covered_where_all_live = Counter()
    for name, cfa, extra_specs in programs:
        live = live_variables(cfa)
        every = (1 << len(cfa.numbering().index)) - 1
        aa = explore(cfa, Spec.assertions(), Budget(max_nodes=200)).aa
        for label, spec, budget, strategy in _cover_runs(cfa, aa,
                                                         extra_specs):
            probes.clear()
            nodes = explore(cfa, spec, budget, strategy).nodes
            got = [(n.status == STATUS_COVERED, n.covered_by) for n in nodes]
            reference = _reference_coverers(cfa, spec, nodes)
            want = [(j is not None, j) for j, _ in reference]
            if got != want:
                mismatches.append((name, label))
            place = name == "unkeyed_first" and \
                _unkeyed_first_place(cfa, nodes)
            if place:
                unkeyed_first += 1
                _, keyed, last = place
                assert [j for j, v in probes if v == last.id] == [keyed.id]
                assert reference[last.id] == (keyed.id, 1)
            for node in nodes:
                if node.status == STATUS_COVERED:
                    covered += 1
                    coverer = nodes[node.covered_by]
                    by_subsumption += coverer.valuation != node.valuation
                    covered_where_all_live[name] += \
                        live[node.cfa_node] == every
    assert mismatches == []
    # Both coverer kinds occur: equal valuations and dead-variable tops.
    assert covered > by_subsumption > 0
    # Groups keyed by whole valuations cover too.
    assert covered_where_all_live["live_loop"] > 0
    # The keyed node takes the place of an unkeyed first node.
    assert unkeyed_first > 0


@pytest.mark.parametrize("max_nodes", [1000, 2000])
def test_cover_checks_grow_linearly_with_nodes(monkeypatch, max_nodes):
    calls = 0
    covers = explorer._Explorer._covers

    def counted(self, j, v):
        nonlocal calls
        calls += 1
        return covers(self, j, v)

    monkeypatch.setattr(explorer._Explorer, "_covers", counted)
    result = explore(source_to_cfa(SPIN, name="spin"), Spec.assertions(),
                     Budget(max_nodes=max_nodes))
    assert result.art_stats.nodes_created == max_nodes
    assert calls <= max_nodes


_GUARD_DOMAIN = range(-2, 3)


def _replays_to_refute(monkeypatch, prefix):
    """`_run_path` and `lang.concrete_eval` calls that `replay` makes to
    refute `a * a < 0` after the prefix, along the then-side of every
    branch, over _GUARD_DOMAIN."""
    cfa = source_to_cfa("int nondet();\nint main() {\n" + prefix +
                        "  int a = nondet();\n  if (a * a < 0) { a = 1; }\n"
                        "  return 0;\n}\n")
    path = []
    node = cfa.entry
    while node != cfa.exit:
        edge = cfa.out_edges(node)[0]
        path.append(edge.id)
        node = edge.dst
    calls = {"runs": 0, "evaluations": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(explorer, "_run_path",
                        counted("runs", explorer._run_path))
    monkeypatch.setattr(lang, "concrete_eval",
                        counted("evaluations", lang.concrete_eval))
    assert replay(cfa, path, nondet_domain=_GUARD_DOMAIN).verdict == INFEASIBLE
    return calls["runs"], calls["evaluations"]


@pytest.mark.parametrize("k", [4, 6, 12])
def test_infeasible_guard_replays_grow_linearly_with_choices(monkeypatch, k):
    # k fresh nondet() branches, then a guard no value satisfies.  It reads
    # only its own choice, so refuting it must not enumerate the earlier
    # ones: about |domain|^(k+1) runs of chronological backtracking.  Runs
    # resume where the changed choice is drawn, so the statements they
    # evaluate stay linear in k too; from entry they grow with k squared.
    branches = "".join(f"  int a{j} = nondet();\n"
                       f"  if (a{j} >= 0) {{ a{j} = 1; }}\n" for j in range(k))
    runs, evaluations = _replays_to_refute(monkeypatch, branches)
    assert runs <= (k + 1) * len(_GUARD_DOMAIN) + k + 1
    assert evaluations <= 10 * (k + 2)


@pytest.mark.parametrize("k", [4, 6])
def test_skippable_nondet_does_not_block_backjumping(monkeypatch, k):
    # Each `||` skips its second nondet() unless the first choice is 0, so
    # the guard's choice index depends on every earlier choice; the guard
    # still reads only its own, so refuting it stays linear.
    skips = "".join(f"  int b{j} = nondet() || nondet();\n" for j in range(k))
    runs, _ = _replays_to_refute(monkeypatch, skips)
    assert runs <= (k + 1) * len(_GUARD_DOMAIN) + k + 1


@pytest.mark.parametrize("strategy, golden_name", [
    ("dfs-postorder", "spin_two_nondet.aa"),
    ("bfs", "spin_two_nondet_bfs.aa"),
])
def test_emitted_automaton_bytes_pinned(tmp_path, capsys, strategy,
                                        golden_name):
    program = tmp_path / "spin_two_nondet.c"
    program.write_text(SPIN_TWO_NONDET)
    out = tmp_path / "out.aa"
    assert main(["verify", str(program), "--max-nodes", "300",
                 "--strategy", strategy, "--aa-out", str(out)]) == EXIT_OK
    assert out.read_text() == golden(golden_name)


def test_always_true_assert_gets_no_witness_search(tmp_path, capsys,
                                                   monkeypatch):
    # `e || 1` holds whatever the nondet() values in e are, so the assert is
    # never a candidate violation.
    chain = " + ".join(["x", "nondet()"] * 19 + ["x"] * 12)
    program = tmp_path / "always_true.c"
    program.write_text("int nondet();\nint main() { int x = nondet(); "
                       f"assert({chain} || 1); return 0; }}\n")
    searches = []
    search = explorer._search_witness

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(explorer, "_search_witness", counted)
    assert main(["verify", str(program), "--max-nodes", "40"]) == EXIT_OK
    assert "verdict: safe" in capsys.readouterr().out
    assert searches == []
