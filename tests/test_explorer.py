"""Exploration: replay, strategies, budgets, verdicts, automaton emission."""

from __future__ import annotations

import random

import pytest

from vericov import (Budget, FALSE_STATE, MissingScores, Spec,
                     explore, make_strategy, parse_aa, psi, replay, score,
                     serialize_aa, source_to_cfa, statement_ids, statements)
from vericov import explorer, lang
from vericov.automaton import AssumptionAutomaton, TRUE_STATE
from vericov.cfa import ASSERT, ASSIGN, ASSUME
from vericov.cli import EXIT_OK, main
from vericov.explorer import (COUNTEREXAMPLES, COVER, FEASIBLE, INCONCLUSIVE,
                              INFEASIBLE, MODE_ASSUMES, MODE_PHI,
                              MODE_VIOLATION, SAFE, STATUS_COVERED,
                              STATUS_EXPANDED, TOP, UNASSIGNED, UNKNOWN,
                              ReplayResult)

from conftest import ALL_FIXTURES, fixture_cfa, golden

RETURN_ONLY = "int main() { return 0; }"
DIAMOND = ("int nondet();\n"
           "int main() { int x = nondet(); if (x > 0) { x = 1; } "
           "else { x = 2; } return 0; }")
DEEP_BRANCHES = ("int nondet();\n"
                 "int main() { int x = nondet(); "
                 "if (x > 0) { x = 1; x = 2; } else { x = 3; x = 4; } "
                 "return 0; }")


def _ids(cfa, text):
    return next(s.id for s in statements(cfa) if s.text() == text)


# Replay ----------------------------------------------------------------------


def test_replay_trivial_assume_feasible_with_empty_witness():
    cfa = source_to_cfa("int main() { if (1 == 1) { } else { } return 0; }")
    then_id = _ids(cfa, "1 == 1")
    halt_id = next(s.id for s in statements(cfa) if s.kind == "halt")
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
# earlier choices before it gives up on a path.


class _RefNeedChoice(Exception):
    pass


class _RefOutOfSteps(Exception):
    pass


def _reference_run_path(edges, choices, mode, steps):
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
        stmt = edge.stmt
        try:
            if stmt.kind == ASSIGN:
                env[stmt.var] = lang.concrete_eval(stmt.expr, env, next_nondet)
            elif stmt.kind == ASSUME:
                if lang.concrete_eval(stmt.expr, env, next_nondet) == 0:
                    return "fail", used
            elif stmt.kind == ASSERT:
                holds = lang.concrete_eval(stmt.expr, env, next_nondet) != 0
                if mode == MODE_PHI and not holds:
                    return "fail", used
                if mode == MODE_VIOLATION:
                    if i == last and holds:
                        return "fail", used
                    if i != last and not holds:
                        return "fail", used
        except _RefNeedChoice:
            return "need", used
        except lang.EvalError:
            return "fail", used
    return "ok", used


def _reference_search(edges, domain, mode, step_limit):
    domain = list(domain)
    steps = [step_limit]
    stack = []  # indices into domain, one per occurrence
    while True:
        choices = [domain[i] for i in stack]
        try:
            status, used = _reference_run_path(edges, choices, mode, steps)
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
    """(source, cfa, mode, edges, domain) for 120 random programs, two
    random paths each, in every mode that applies."""
    for _ in range(120):
        source = _random_program(rng, **generator)
        cfa = source_to_cfa(source)
        for _ in range(2):
            path = _random_path(rng, cfa)
            asserts = [i for i, e in enumerate(path) if e.stmt.kind == ASSERT]
            runs = [(MODE_ASSUMES, path), (MODE_PHI, path)]
            if asserts:
                runs.append((MODE_VIOLATION, path[:rng.choice(asserts) + 1]))
            for mode, edges in runs:
                yield source, cfa, mode, edges, rng.choice(domains)


def test_backjumping_matches_chronological_search():
    # Whenever the reference finishes within the step limit, the new search
    # returns the same verdict and witness, so it is never inconclusive
    # where the reference is not.
    for seed, generator, domains in _CORPORA:
        seen = {FEASIBLE: 0, INFEASIBLE: 0, INCONCLUSIVE: 0}
        mismatches = []
        for source, cfa, mode, edges, domain in _corpus_searches(
                random.Random(seed), generator, domains):
            want = _reference_search(edges, domain, mode, 1000)
            got = explorer._search_witness(edges, cfa.numbering(), domain,
                                           mode, 1000)
            seen[want.verdict] += 1
            if want.verdict == INCONCLUSIVE:
                continue
            if (got.verdict, got.witness) != (want.verdict, want.witness):
                mismatches.append((source, [e.stmt.id for e in edges], mode,
                                   list(domain), want, got))
        assert mismatches == [], seed
        assert min(seen[FEASIBLE], seen[INFEASIBLE]) >= 100, (seed, seen)


# The backjumping search as it was before runs resumed from checkpoints,
# kept as the reference for step counting: every run replays the path
# from entry and is charged one step per statement it executes.


def _restart_run_path(plan, choices, mode, steps):
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
    for i, (stmt, reads, write) in enumerate(plan):
        if steps[0] <= 0:
            raise _RefOutOfSteps
        steps[0] -= 1
        kind = stmt.kind
        if kind != ASSIGN and kind != ASSUME and kind != ASSERT:
            continue
        start = used
        try:
            value = lang.concrete_eval(stmt.expr, env, next_nondet)
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
            env[stmt.var] = value
            depends[write] = mask
        elif kind == ASSUME or mode == MODE_PHI:
            if value == 0:
                return "fail", mask
        elif mode == MODE_VIOLATION and (value != 0) == (i == last):
            return "fail", mask
    return "ok", 0


def _restart_search(edges, variables, domain, mode, step_limit):
    """(result, steps consumed)."""
    domain = list(domain)
    plan = [(e.stmt, variables.reads[e.stmt.id], variables.writes[e.stmt.id])
            for e in edges]
    steps = [step_limit]
    stack = []
    conflicts = []
    last_value = len(domain) - 1
    while True:
        choices = [domain[i] for i in stack]
        try:
            status, conflict = _restart_run_path(plan, choices, mode, steps)
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
    budgets = []

    class RecordedBudget(explorer._StepBudget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(explorer, "_StepBudget", RecordedBudget)
    for seed, generator, domains in _CORPORA:
        rng = random.Random(seed)
        seen = {FEASIBLE: 0, INFEASIBLE: 0, INCONCLUSIVE: 0}
        mismatches = []
        for source, cfa, mode, edges, domain in _corpus_searches(
                rng, generator, domains):
            variables = cfa.numbering()
            _, needed = _restart_search(edges, variables, domain, mode, 300)
            limits = {1, needed - 1, needed, needed + 1,
                      *(rng.randint(1, 300) for _ in range(3))}
            for limit in sorted(x for x in limits if 1 <= x <= 300):
                want = _restart_search(edges, variables, domain, mode, limit)
                got = explorer._search_witness(edges, variables, domain,
                                               mode, limit)
                got = got, limit - budgets[-1].left
                seen[want[0].verdict] += 1
                if (got[0].verdict, got[0].witness, got[1]) != \
                        (want[0].verdict, want[0].witness, want[1]):
                    mismatches.append((source, [e.stmt.id for e in edges],
                                       mode, list(domain), limit, want, got))
        assert mismatches == [], seed
        assert min(seen.values()) >= 100, (seed, seen)


# Spec and budget validation --------------------------------------------------


def test_cover_spec_requires_nonempty_remaining():
    aa = AssumptionAutomaton(name="x", initial=TRUE_STATE)
    with pytest.raises(ValueError):
        Spec.cover(frozenset(), aa)


@pytest.mark.parametrize("kwargs", [
    {"time_limit": 0}, {"time_limit": -1.0},
    {"max_nodes": 0}, {"max_nodes": -5},
    {"max_counterexamples": 0},
])
def test_budget_rejects_nonpositive_limits(kwargs):
    with pytest.raises(ValueError):
        Budget(**kwargs)


def test_make_strategy_validation():
    with pytest.raises(ValueError):
        make_strategy("random-walk")
    with pytest.raises(MissingScores):
        make_strategy("dfs-postorder+score")
    assert make_strategy("dfs-postorder+score", {"q0": 1}).scores == {"q0": 1}


# Verdicts --------------------------------------------------------------------


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
    # first. The automaton routes the else side into the larger region.
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
    scores = {"q0": 5, "qsplit": 4, "qsmall": 1, "qbig": 5}
    spec = Spec.cover(frozenset(range(6)), aa)
    result = explore(cfa, spec, Budget(max_counterexamples=1),
                     strategy=make_strategy("dfs-postorder+score", scores))
    assert result.verdict == COUNTEREXAMPLES
    # The else-assume (statement 2) is on the first generated execution.
    assert 2 in result.counterexamples[0].statements

    baseline = explore(cfa, spec, Budget(max_counterexamples=1),
                       strategy=make_strategy("dfs-postorder"))
    assert 1 in baseline.counterexamples[0].statements


def test_unscored_states_default_to_zero():
    cfa = fixture_cfa("deadbranch.c")
    result = explore(cfa, Spec.assertions(), Budget(),
                     strategy=make_strategy("dfs-postorder+score", {}))
    assert result.verdict == SAFE


# Automaton emission ----------------------------------------------------------


def test_safe_exploration_emits_false_free_automaton():
    result = explore(source_to_cfa(RETURN_ONLY), Spec.assertions(), Budget())
    assert result.verdict == SAFE
    assert psi(result.aa, (0,)) is True
    assert "__FALSE" not in serialize_aa(result.aa)


def test_interrupted_diamond_sends_both_assumes_to_false():
    result = explore(source_to_cfa(DIAMOND), Spec.assertions(),
                     Budget(max_nodes=3))
    text = serialize_aa(result.aa)
    assert "ON 1 -> __FALSE" in text
    assert "ON 3 -> __FALSE" in text
    assert psi(result.aa, (0,)) is True
    assert psi(result.aa, (0, 1)) is False
    assert psi(result.aa, (0, 3)) is False


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
        result.nodes, result.cfa, result.verdict, name=result.cfa.name))


def test_unexpanded_root_gives_false_initial():
    result = explore(source_to_cfa(DIAMOND), Spec.assertions(),
                     Budget(max_nodes=1))
    assert result.aa.initial == FALSE_STATE
    assert psi(result.aa, ()) is False


def _bigloop_accepted_unrollings(max_nodes):
    cfa = fixture_cfa("bigloop.c")
    result = explore(cfa, Spec.assertions(), Budget(max_nodes=max_nodes))
    assert result.verdict == UNKNOWN
    accepted = []
    for k in range(0, 80):
        path = (0,) + (2, 3, 4) * k
        if psi(result.aa, path):
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
        if path and psi(result.aa, path):
            checked += 1
            assert path in tree_paths
        for edge in cfa.out_edges(node):
            stack.append((edge.dst, path + (edge.stmt.id,)))
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


class _LocationBuckets:
    """Reference index: one group per location and automaton state."""

    def __init__(self, live):
        self.groups = {}

    def group(self, node):
        return self.groups.setdefault((node.cfa_node, node.aa_state), [])


def _reference_coverers(self, group, node):
    equal = [j for j in group if self.nodes[j].valuation == node.valuation]
    return equal + [j for j in group
                    if self.nodes[j].valuation != node.valuation]


def _reference_covers(self, j, v):
    """The strict cover policy, checked on every variable."""
    if self.spec.kind == COVER and not j.tracked >= v.tracked:
        return False
    live_here = self.live[v.cfa_node]
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


def _cover_runs(cfa, aa, extra_specs):
    """(label, spec, budget, strategy) for every strategy, every spec and
    several node budgets."""
    strategies = [make_strategy("bfs"), make_strategy("dfs-postorder"),
                  make_strategy("dfs-postorder+score", score(aa, cfa))]
    specs = [Spec.assertions(), Spec.cover(statement_ids(cfa), aa),
             *extra_specs]
    for strategy in strategies:
        for spec in specs:
            for max_nodes in (40, 250, 800):
                yield ((strategy.kind, spec.kind, max_nodes), spec,
                       Budget(max_nodes=max_nodes), strategy)


def test_cover_groups_choose_the_reference_coverer(monkeypatch):
    # Each node's status and coverer equal those of a brute-force scan of
    # every indexed node at the location: equal valuations first, then
    # the others, each in insertion order.
    programs = [(name, fixture_cfa(name), []) for name in ALL_FIXTURES]
    programs.append(("spin_two_nondet",
                     source_to_cfa(SPIN_TWO_NONDET, name="spin_two_nondet"),
                     []))
    programs.append(("joins", source_to_cfa(JOINS, name="joins"),
                     [Spec.cover({0, 5}, AssumptionAutomaton(
                         name="all", initial=TRUE_STATE))]))
    mismatches = []
    covered = by_subsumption = 0
    for name, cfa, extra_specs in programs:
        aa = explore(cfa, Spec.assertions(), Budget(max_nodes=200)).aa
        for label, spec, budget, strategy in _cover_runs(cfa, aa,
                                                         extra_specs):
            nodes = explore(cfa, spec, budget, strategy).nodes
            with monkeypatch.context() as patch:
                patch.setattr(explorer, "_CoverIndex", _LocationBuckets)
                patch.setattr(explorer._Explorer, "_coverers",
                              _reference_coverers)
                patch.setattr(explorer._Explorer, "_covers",
                              _reference_covers)
                reference = explore(cfa, spec, budget, strategy).nodes
            got = [(n.status, n.covered_by) for n in nodes]
            want = [(n.status, n.covered_by) for n in reference]
            if got != want:
                mismatches.append((name, label))
            for node in nodes:
                if node.status == STATUS_COVERED:
                    covered += 1
                    coverer = nodes[node.covered_by]
                    by_subsumption += coverer.valuation != node.valuation
    assert mismatches == []
    # Both coverer kinds occur: equal valuations and dead-variable tops.
    assert covered > by_subsumption > 0


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
        path.append(edge.stmt.id)
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
