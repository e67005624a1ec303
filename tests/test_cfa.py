"""Control-flow automaton construction, numbering, and utilities.

Run it as a script to print how long the numbering, liveness and postorder
take, against their reference versions below, on programs of 300 to 2,400
blocks of `test_frontend_memory.large_source`'s shape:

    PYTHONPATH=src python tests/test_cfa.py
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from vericov import (Budget, Spec, dump_cfa, exact_coverage, explore,
                     live_variables, make_strategy, parse_program,
                     postorder_index, source_to_cfa, statement_ids)
from vericov import cfa as cfa_module
from vericov import lang
from vericov.automaton import TRUE_STATE, AssumptionAutomaton
from vericov.cfa import ASSERT, ASSIGN, ASSUME, HALT, SKIP, Cfa, Edge
from vericov.lowering import lower

sys.path.insert(0, str(Path(__file__).parent))
import oracle  # noqa: E402
from conftest import (ALL_FIXTURES, fixture_cfa, fixture_source,  # noqa: E402
                      golden)
from test_explorer import _CORPORA, _random_program  # noqa: E402
from test_frontend_memory import large_source  # noqa: E402
from test_parse_outcomes import _corpus  # noqa: E402

DIAMOND = ("int nondet();\n"
           "int main() { int x = nondet(); if (x > 0) { x = 1; } "
           "else { x = 2; } return 0; }")


def test_bigloop_dump_matches_golden():
    cfa = fixture_cfa("bigloop.c")
    assert dump_cfa(cfa) == golden("bigloop.dump")


def test_bigloop_statement_count():
    # Hand count: loop init, exit assume, body assume, skip body, update,
    # assert, halt.
    assert len(fixture_cfa("bigloop.c").edges) == 7


def test_deadbranch_branch_statements_present():
    cfa = fixture_cfa("deadbranch.c")
    texts = {(e.kind, e.text()) for e in cfa.edges}
    assert ("assume", "x * x < 0") in texts
    assert ("assume", "!(x * x < 0)") in texts
    assert ("assign", "reached_dead_code = 1") in texts
    assert len(cfa.edges) == 8


def test_empty_main_is_one_halt_edge():
    cfa = source_to_cfa("int main() { }")
    assert dump_cfa(cfa) == "entry L0\nexit L1\nL0 -[0:halt]-> L1\n"


def test_uninitialized_declaration_reads_nondet():
    cfa = source_to_cfa("int main() { int x; return 0; }")
    assert cfa.edges[0].text() == "x = nondet()"


def test_out_edges_sorted_by_statement_id():
    cfa = fixture_cfa("bigloop.c")
    for node in cfa.nodes:
        ids = [e.id for e in cfa.out_edges(node)]
        assert ids == sorted(ids)


def test_statement_ids_dense():
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        assert statement_ids(cfa) == set(range(len(cfa.edges)))


def test_loop_exit_assume_has_lower_id_than_body_assume():
    cfa = fixture_cfa("bigloop.c")
    by_text = {e.text(): e.id for e in cfa.edges if e.kind == "assume"}
    assert by_text["!(i < 1000000)"] < by_text["i < 1000000"]


def test_then_assume_precedes_else_assume():
    cfa = source_to_cfa(DIAMOND)
    assumes = [e for e in cfa.edges if e.kind == "assume"]
    assert assumes[0].text() == "x > 0"
    assert assumes[1].text() == "!(x > 0)"
    assert assumes[0].id < assumes[1].id


def test_return_mid_branch_targets_exit():
    cfa = fixture_cfa("early_return.c")
    halts = [e for e in cfa.edges if e.kind == "halt"]
    assert all(e.dst == cfa.exit for e in halts)
    assert len(halts) == 2  # branch return and trailing return


def test_dead_code_after_return_still_lowered():
    cfa = fixture_cfa("dead_after_return.c")
    kinds = [e.kind for e in cfa.edges]
    # x = 0; return; x = 1; assert; implicit halt
    assert kinds == ["assign", "halt", "assign", "assert", "halt"]


# Postorder numbering ---------------------------------------------------------


def test_postorder_chain():
    cfa = source_to_cfa("int main() { int a = 1; return 0; }")
    # entry -> L2 -> exit: exit finishes first, entry last.
    assert postorder_index(cfa) == {1: 0, 2: 1, 0: 2}


def test_postorder_diamond():
    cfa = source_to_cfa(DIAMOND)
    # Hand derivation. Nodes: 0 entry, 1 exit, 2 split, 4 then-mid,
    # 5 else-mid, 3 join. DFS follows ascending statement ids:
    # 0,2,4,3,1 finish as 1:0, 3:1, 4:2; then 5:3, 2:4, 0:5.
    assert postorder_index(cfa) == {1: 0, 3: 1, 4: 2, 5: 3, 2: 4, 0: 5}
    index = postorder_index(cfa)
    split, then_mid, else_mid = 2, 4, 5
    assert index[then_mid] < index[split]
    assert index[else_mid] < index[split]


def test_postorder_bigloop():
    cfa = fixture_cfa("bigloop.c")
    assert postorder_index(cfa) == {1: 0, 6: 1, 2: 2, 4: 3, 5: 4, 3: 5, 0: 6}
    # The loop-exit successor (L2) sits below the loop body head (L5).
    assert postorder_index(cfa)[2] < postorder_index(cfa)[5]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_postorder_is_bijection(name):
    cfa = fixture_cfa(name)
    index = postorder_index(cfa)
    assert sorted(index) == sorted(cfa.nodes)
    assert sorted(index.values()) == list(range(len(cfa.nodes)))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_postorder_acyclic_edges_point_downward(name):
    cfa = fixture_cfa(name)
    index = postorder_index(cfa)
    back_edges = _back_edges(cfa)
    for e in cfa.edges:
        if (e.src, e.id, e.dst) not in back_edges:
            assert index[e.dst] < index[e.src], e


def _back_edges(cfa):
    """Edges closing a cycle, found by an independent DFS from entry."""
    back = set()
    state = {}  # node -> "active" | "done"

    def visit(node):
        state[node] = "active"
        for e in cfa.out_edges(node):
            if state.get(e.dst) == "active":
                back.add((e.src, e.id, e.dst))
            elif e.dst not in state:
                visit(e.dst)
        state[node] = "done"

    for node in cfa.nodes:
        if node not in state:
            visit(node)
    return back


def test_postorder_deterministic():
    first = postorder_index(fixture_cfa("bigloop.c"))
    second = postorder_index(fixture_cfa("bigloop.c"))
    assert first == second


# Liveness --------------------------------------------------------------------


def _live_names(cfa):
    """live_variables decoded through the variable numbering."""
    names = list(cfa.numbering().index)
    return {node: frozenset(name for i, name in enumerate(names)
                            if mask >> i & 1)
            for node, mask in live_variables(cfa).items()}


def test_live_variables_simple():
    cfa = source_to_cfa("int main() { int x = 1; assert(x > 0); return 0; }")
    live = _live_names(cfa)
    # x is live between its assignment and the assert read, dead elsewhere.
    assign_edge = cfa.edges[0]
    assert_edge = cfa.edges[1]
    assert live[assign_edge.src] == frozenset()
    assert live[assert_edge.src] == frozenset({"x"})
    assert live[cfa.exit] == frozenset()


def test_live_variables_loop_carried():
    cfa = fixture_cfa("loop_concrete.c")
    live = _live_names(cfa)
    loop_head = next(e.src for e in cfa.edges
                     if e.kind == "assume" and e.text() == "i < 4")
    assert {"s", "i"} <= set(live[loop_head])


def test_live_variables_fixpoint_runs_once_per_cfa(monkeypatch):
    runs = 0
    fixpoint = cfa_module._live_fixpoint

    def counted(cfa):
        nonlocal runs
        runs += 1
        return fixpoint(cfa)

    monkeypatch.setattr(cfa_module, "_live_fixpoint", counted)
    cfa = fixture_cfa("chain_ifs.c")
    all_runs = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    report = exact_coverage(cfa, all_runs,
                            Budget(max_nodes=500, max_counterexamples=1))
    assert report.rounds >= 3
    explore(cfa, Spec.assertions(), Budget(max_nodes=50))
    explore(cfa, Spec.assertions(), Budget(max_nodes=50),
            make_strategy("bfs"))
    assert runs == 1


def test_postorder_dfs_runs_once_per_cfa(monkeypatch):
    runs = 0
    dfs = cfa_module._postorder_dfs

    def counted(cfa):
        nonlocal runs
        runs += 1
        return dfs(cfa)

    monkeypatch.setattr(cfa_module, "_postorder_dfs", counted)
    cfa = fixture_cfa("chain_ifs.c")
    # bfs forks but orders no children, so it needs no postorder.
    explore(cfa, Spec.assertions(), Budget(max_nodes=50),
            make_strategy("bfs"))
    assert runs == 0
    all_runs = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    report = exact_coverage(cfa, all_runs,
                            Budget(max_nodes=500, max_counterexamples=1))
    assert report.rounds >= 3
    explore(cfa, Spec.assertions(), Budget(max_nodes=50))
    assert runs == 1
    assert cfa_module.postorder_index(cfa) == dfs(cfa)
    explore(fixture_cfa("chain_ifs.c"), Spec.assertions(),
            Budget(max_nodes=50))
    assert runs == 2


# Reference analyses ----------------------------------------------------------
#
# The numbering, liveness and postorder as first written: a dict of names
# per statement, a worklist that may hold a node many times, and a DFS
# that indexes back into the out-edges on every pop.  The analyses in
# `vericov.cfa` must give exactly their results, orders included: the
# numbering lays out the valuations and the cover-group keys.


def _reference_numbering(cfa):
    index, reads, writes = {}, {}, {}
    for e in cfa.edges:
        write = 0
        if e.kind == ASSIGN:
            write = 1 << index.setdefault(e.var, len(index))
        mask = 0
        if e.expr is not None:
            for name in dict.fromkeys(arg for op, arg in e.expr
                                      if op is lang.VAR):
                mask |= 1 << index.setdefault(name, len(index))
        reads[e.id] = mask
        writes[e.id] = write
    return index, reads, writes


def _reference_live(cfa, reads, writes):
    live = {n: 0 for n in cfa.nodes}
    preds = {n: [] for n in cfa.nodes}
    for e in cfa.edges:
        preds[e.dst].append(e)
    worklist = list(cfa.nodes)
    while worklist:
        node = worklist.pop()
        live_here = live[node]
        for e in preds[node]:
            sid = e.id
            flow = reads[sid] | (live_here & ~writes[sid])
            if flow & ~live[e.src]:
                live[e.src] |= flow
                worklist.append(e.src)
    return live


def _reference_postorder(cfa):
    index, visited, counter = {}, set(), 0

    def dfs(root):
        nonlocal counter
        stack = [(root, 0)]
        visited.add(root)
        while stack:
            node, i = stack.pop()
            out = cfa.out_edges(node)
            while i < len(out) and out[i].dst in visited:
                i += 1
            if i < len(out):
                stack.append((node, i + 1))
                nxt = out[i].dst
                visited.add(nxt)
                stack.append((nxt, 0))
            else:
                index[node] = counter
                counter += 1

    dfs(cfa.entry)
    for node in sorted(cfa.nodes):
        if node not in visited:
            dfs(node)
    return index


def _analyses(cfa):
    numbering = cfa.numbering()
    return (list(numbering.index.items()), numbering.reads, numbering.writes,
            live_variables(cfa), list(postorder_index(cfa).items()))


def _reference_analyses(cfa):
    index, reads, writes = _reference_numbering(cfa)
    return (list(index.items()), reads, writes,
            _reference_live(cfa, reads, writes),
            list(_reference_postorder(cfa).items()))


def _assert_analyses_match_the_reference(sources):
    programs = 0
    for source in sources:
        try:
            cfa = source_to_cfa(source)
        except (lang.ParseError, lang.UndeclaredVariable):
            continue
        assert _analyses(cfa) == _reference_analyses(cfa), source
        programs += 1
    return programs


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_analyses_match_the_reference_on_a_fixture(name):
    assert _assert_analyses_match_the_reference([fixture_source(name)]) == 1


def test_analyses_match_the_reference_on_the_dump_corpus():
    assert _assert_analyses_match_the_reference(_corpus()) == 583


def test_analyses_match_the_reference_on_random_programs():
    sources = [_random_program(rng, **generator)
               for rng, generator in ((random.Random(seed), generator)
                                      for seed, generator, _ in _CORPORA)
               for _ in range(120)]
    assert _assert_analyses_match_the_reference(sources) == len(sources)


@pytest.mark.parametrize("blocks", [300, 600])
def test_analyses_match_the_reference_on_a_wide_program(blocks):
    source = large_source(blocks)
    assert _assert_analyses_match_the_reference([source]) == 1


# Validation ------------------------------------------------------------------


def test_validate_rejects_sparse_statement_ids():
    edges = [Edge(0, 1, 1, HALT)]
    with pytest.raises(ValueError):
        Cfa("bad", [0, 1], edges, entry=0, exit=1).validate()


def test_validate_rejects_dense_ids_out_of_order():
    edges = [Edge(2, 1, 1, HALT), Edge(0, 2, 0, SKIP)]
    with pytest.raises(ValueError):
        Cfa("bad", [0, 1, 2], edges, entry=0, exit=1).validate()


def test_validate_rejects_duplicate_node_ids():
    edges = [Edge(0, 1, 0, HALT)]
    with pytest.raises(ValueError, match="duplicate node ids"):
        Cfa("bad", [0, 1, 0], edges, entry=0, exit=1).validate()


@pytest.mark.parametrize("src, dst", [(0, 5), (5, 0)])
def test_validate_rejects_an_edge_endpoint_outside_the_nodes(src, dst):
    edges = [Edge(0, 1, 0, HALT), Edge(src, dst, 1, SKIP)]
    with pytest.raises(ValueError, match="edge endpoint outside node set"):
        Cfa("bad", [0, 1], edges, entry=0, exit=1).validate()


def test_edge_rejects_ids_outside_the_table():
    cfa = fixture_cfa("deadbranch.c")
    assert cfa.edge(len(cfa.edges) - 1).id == len(cfa.edges) - 1
    for stmt_id in (-1, len(cfa.edges)):
        with pytest.raises(ValueError):
            cfa.edge(stmt_id)


def test_validate_accepts_edge_into_entry():
    # A loop at the start of main has its head at entry, so its back edge
    # enters entry.
    edges = [Edge(0, 1, 0, HALT), Edge(2, 0, 1, SKIP)]
    Cfa("loop", [0, 1, 2], edges, entry=0, exit=1).validate()
    cfa = source_to_cfa("int main() { while (0) ; return 0; }")
    assert [e.src for e in cfa.edges if e.dst == cfa.entry] == [3]


@pytest.mark.parametrize("entry, exit_", [(5, 1), (0, 5)])
def test_validate_rejects_an_entry_or_exit_outside_the_nodes(entry, exit_):
    # Unchecked, `explore` died inside the analyses with a bare KeyError.
    edges = [Edge(0, 1, 0, HALT)]
    with pytest.raises(ValueError, match="node 5 outside node set"):
        Cfa("bad", [0, 1], edges, entry=entry, exit=exit_).validate()


def test_validate_rejects_edge_out_of_exit():
    edges = [Edge(0, 1, 0, HALT), Edge(1, 0, 1, HALT)]
    with pytest.raises(ValueError):
        Cfa("bad", [0, 1], edges, entry=0, exit=1).validate()


@pytest.mark.parametrize("kind", [ASSUME, ASSERT, SKIP])
def test_validate_accepts_any_edge_into_exit(kind):
    # No search reads a final assert as a request for a counterexample
    # unless it names one, so nothing needs a halt into exit.
    expr = ((lang.LIT, 1),) if kind != SKIP else None
    Cfa("into_exit", [0, 1], [Edge(0, 1, 0, kind, None, expr)],
        entry=0, exit=1).validate()


def test_an_assert_into_exit_is_a_counterexample_and_a_covered_end():
    # x = nondet(); assert(x), the assert entering exit.  It fails at
    # x = 0, the first value that does; and an execution in which it holds
    # covers both statements.
    cfa = Cfa("assert_into_exit", [0, 1, 2],
              [Edge(0, 2, 0, ASSIGN, "x", lang.NONDET_EXPR),
               Edge(2, 1, 1, ASSERT, None, ((lang.VAR, "x"),))],
              entry=0, exit=1)
    cfa.validate()
    result = explore(cfa, Spec.assertions(), Budget())
    assert [(e.statements, e.witness) for e in result.counterexamples] == \
        [((0, 1), {0: 0})]
    aa = AssumptionAutomaton(name="all", initial=TRUE_STATE)
    assert exact_coverage(cfa, aa, Budget()).covered_ids == [0, 1]


def _out_edge(stmt_id, kind):
    """Statement `stmt_id` of the given kind out of entry: a halt into
    exit, any other kind into location 2."""
    one = ((lang.LIT, 1),)
    return Edge(0, 1 if kind == HALT else 2, stmt_id, kind,
                "x" if kind == ASSIGN else None,
                one if kind in (ASSIGN, ASSUME, ASSERT) else None)


KINDS = [ASSIGN, ASSUME, ASSERT, SKIP, HALT]


@pytest.mark.parametrize("first, second", [
    (first, second) for first in KINDS for second in KINDS
    if ASSUME != first or ASSUME != second])
def test_validate_rejects_a_branch_that_is_not_all_assumes(first, second):
    # One expansion then records at most one execution or counterexample,
    # so the explorer checks its counterexample budget once per expansion.
    edges = [_out_edge(0, first), _out_edge(1, second), Edge(2, 1, 2, HALT)]
    with pytest.raises(ValueError, match="^statements 0 and 1 leave one"
                                         " location, and only assumes"
                                         " branch$"):
        Cfa("bad", [0, 1, 2], edges, entry=0, exit=1).validate()


def test_validate_accepts_three_assumes_out_of_one_location():
    edges = [_out_edge(i, ASSUME) for i in range(3)] + [Edge(2, 1, 3, HALT)]
    Cfa("fork", [0, 1, 2], edges, entry=0, exit=1).validate()


# Correspondence with source control paths ------------------------------------


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_cfa_paths_match_ast_control_paths(name):
    """Entry-to-exit CFA label paths = AST control paths, up to length 50.

    The AST side is enumerated by an independent walker that never looks
    at the lowering code.
    """
    program = parse_program(fixture_source(name))
    cfa = lower(program)
    ast_side = oracle.ast_label_paths(program, max_len=50)
    cfa_side = oracle.cfa_label_paths(cfa, max_len=50)
    assert ast_side == cfa_side
    assert ast_side  # at least one terminating control path


def test_statements_stable_across_lowerings():
    a = dump_cfa(fixture_cfa("deadbranch.c"))
    b = dump_cfa(fixture_cfa("deadbranch.c"))
    assert a == b


# Record layout ---------------------------------------------------------------


@pytest.mark.parametrize("cls", [
    Edge, lang.Assign, lang.If, lang.For, lang.Assert, lang.Return,
    lang.Skip, lang.Program])
def test_front_end_records_hold_no_instance_dict(cls):
    # Lowering builds one Edge per statement.  A frozen dataclass takes
    # about four times as long to build as a slotted one, and a plain one
    # carries a dict per instance.
    record = cls(*[None] * len(fields(cls)))
    assert not hasattr(record, "__dict__")


def test_cfa_equality_ignores_the_caches_its_analyses_fill():
    # The numbering, the out-edge lists, liveness and the postorder are
    # kept on the automaton once worked out, but are not part of its value.
    one, other = fixture_cfa("bigloop.c"), fixture_cfa("bigloop.c")
    assert one == other
    live_variables(one)
    postorder_index(one)
    one.out_edges(one.entry)
    assert one == other and other == one
    assert [f.name for f in fields(Cfa)] == \
        ["name", "nodes", "edges", "entry", "exit"]
    with pytest.raises(TypeError):
        Cfa("c", [0, 1], [], entry=0, exit=1, _live={})


def test_equal_statements_compare_equal():
    one = Edge(0, 2, 3, ASSIGN, "x", lang.ONE)
    assert one == Edge(0, 2, 3, ASSIGN, "x", lang.ONE)
    assert one != Edge(0, 2, 3, ASSIGN, "y", lang.ONE)


def _median_ms(work, cfa, prepare=None, runs=5):
    """Median wall time of `work` on fresh copies of `cfa`, each holding
    no analysis but what `prepare` worked out untimed.  Each run starts
    after a full collection, so none falls into a run by the allocation
    history of the ones before."""
    times = []
    for _ in range(runs):
        fresh = Cfa(cfa.name, cfa.nodes, cfa.edges, cfa.entry, cfa.exit)
        if prepare is not None:
            prepare(fresh)
        gc.collect()
        start = time.perf_counter()
        work(fresh)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


if __name__ == "__main__":
    # Liveness is timed without the numbering it reads, and the postorder
    # without the out-edge table, which `explore` has built by the first
    # fork it orders.
    print("blocks statements variables  numbering ms  liveness ms"
          "  postorder ms  (reference)")

    def out_table(cfa):
        cfa.out_edges(cfa.entry)

    for blocks in (300, 600, 1200, 2400):
        cfa = source_to_cfa(large_source(blocks))
        _, reads, writes = _reference_numbering(cfa)
        figures = [
            (_median_ms(Cfa.numbering, cfa),
             _median_ms(_reference_numbering, cfa)),
            (_median_ms(cfa_module._live_fixpoint, cfa, Cfa.numbering),
             _median_ms(lambda c: _reference_live(c, reads, writes), cfa)),
            (_median_ms(cfa_module._postorder_dfs, cfa, out_table),
             _median_ms(_reference_postorder, cfa, out_table))]
        print(f"{blocks:6} {len(cfa.edges):10} {len(cfa.numbering().index):9}"
              + "".join(f"  {new:5.1f} ({old:5.1f})" for new, old in figures))
