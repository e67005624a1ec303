"""Product construction, reach fixpoint, and state scoring.

Every expected reach set and score in this file was computed by hand
from the product definition before the implementation existed.
"""

from __future__ import annotations

import pytest

from vericov import (Budget, Spec, compose, explore, make_strategy, parse_aa,
                     reach_fixpoint, score, source_to_cfa)
from vericov.automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton)
from vericov.heuristic import Product

from conftest import ALL_FIXTURES, fixture_cfa, golden

CHAIN = "int main() { int a = 1; a = 2; return 0; }"
# Edges: 0: L0->L2 a=1; 1: L2->L3 a=2; 2: L3->L1 halt.

DIAMOND = ("int nondet();\n"
           "int main() { int x = nondet(); if (x > 0) { x = 1; } "
           "else { x = 2; } return 0; }")
# Edges: 0: L0->L2 x=nondet(); 1: L2->L4 assume x>0; 2: L4->L3 x=1;
#        3: L2->L5 assume !(x>0); 4: L5->L3 x=2; 5: L3->L1 halt.

TWO_CYCLE = "int main() { int i = 0; while (i < 2) { i = i + 1; } return 0; }"
# Edges: 0: L0->L2 i=0; 1: L2->L3 assume !(i<2); 2: L2->L4 assume i<2;
#        3: L4->L2 i=i+1; 4: L3->L1 halt.


def _chain_aa():
    aa = AssumptionAutomaton(name="chain", initial="q0")
    aa.add_state("q0", 0)
    aa.add_state("q1", 2)
    aa.add_state("q2", 3)
    aa.add_transition("q0", 0, "q1")
    aa.add_transition("q1", 1, "q2")
    aa.add_transition("q2", 2, TRUE_STATE)
    return aa


def _diamond_aa():
    aa = AssumptionAutomaton(name="diamond", initial="q0")
    for name, loc in (("q0", 0), ("q1", 2), ("q2", 4), ("q3", 5), ("q4", 3)):
        aa.add_state(name, loc)
    aa.add_transition("q0", 0, "q1")
    aa.add_transition("q1", 1, "q2")
    aa.add_transition("q1", 3, "q3")
    aa.add_transition("q2", 2, "q4")
    aa.add_transition("q3", 4, "q4")
    aa.add_transition("q4", 5, TRUE_STATE)
    return aa


def test_chain_product_and_scores():
    cfa = source_to_cfa(CHAIN)
    product = compose(_chain_aa(), cfa)
    assert product.initial == ("q0", 0)
    assert product.states == [("q0", 0), ("q1", 2), ("q2", 3),
                              (TRUE_STATE, 1)]
    assert product.successors[("q0", 0)] == [("q1", 2)]
    assert product.successors[(TRUE_STATE, 1)] == []

    reach = reach_fixpoint(product)
    assert reach[(TRUE_STATE, 1)] == frozenset({1})
    assert reach[("q2", 3)] == frozenset({3, 1})
    assert reach[("q1", 2)] == frozenset({2, 3, 1})
    assert reach[("q0", 0)] == frozenset({0, 2, 3, 1})

    assert score(_chain_aa(), cfa) == {
        "q0": 4, "q1": 3, "q2": 2, TRUE_STATE: 1}


def test_diamond_product_and_scores():
    cfa = source_to_cfa(DIAMOND)
    product = compose(_diamond_aa(), cfa)
    assert set(product.states) == {
        ("q0", 0), ("q1", 2), ("q2", 4), ("q3", 5), ("q4", 3),
        (TRUE_STATE, 1)}
    assert product.successors[("q1", 2)] == [("q2", 4), ("q3", 5)]

    reach = reach_fixpoint(product)
    assert reach[("q2", 4)] == frozenset({4, 3, 1})
    assert reach[("q3", 5)] == frozenset({5, 3, 1})
    assert reach[("q1", 2)] == frozenset({2, 4, 5, 3, 1})
    assert reach[("q0", 0)] == frozenset({0, 2, 4, 5, 3, 1})

    assert score(_diamond_aa(), cfa) == {
        "q0": 6, "q1": 5, "q2": 3, "q3": 3, "q4": 2, TRUE_STATE: 1}


def test_cycle_reach_converges_to_whole_loop():
    cfa = source_to_cfa(TWO_CYCLE)
    aa = AssumptionAutomaton(name="cycle", initial="q0")
    for name, loc in (("q0", 0), ("qh", 2), ("qb", 4), ("qx", 3)):
        aa.add_state(name, loc)
    aa.add_transition("q0", 0, "qh")
    aa.add_transition("qh", 1, "qx")
    aa.add_transition("qh", 2, "qb")
    aa.add_transition("qb", 3, "qh")   # back to the loop head
    aa.add_transition("qx", 4, TRUE_STATE)

    reach = reach_fixpoint(compose(aa, cfa))
    assert reach[("qh", 2)] == frozenset({1, 2, 3, 4})
    assert reach[("qb", 4)] == frozenset({1, 2, 3, 4})
    assert reach[("qx", 3)] == frozenset({3, 1})
    assert reach[("q0", 0)] == frozenset({0, 1, 2, 3, 4})

    assert score(aa, cfa) == {
        "q0": 5, "qh": 4, "qb": 4, "qx": 2, TRUE_STATE: 1}


def test_false_cuts_reach_and_scores_zero():
    cfa = source_to_cfa(DIAMOND)
    aa = AssumptionAutomaton(name="cut", initial="q0")
    for name, loc in (("q0", 0), ("q1", 2), ("q2", 4), ("q4", 3)):
        aa.add_state(name, loc)
    aa.add_transition("q0", 0, "q1")
    aa.add_transition("q1", 1, "q2")
    aa.add_transition("q1", 3, FALSE_STATE)  # else side unexplored
    aa.add_transition("q2", 2, "q4")
    aa.add_transition("q4", 5, TRUE_STATE)

    product = compose(aa, cfa)
    assert product.successors[(FALSE_STATE, 5)] == []
    reach = reach_fixpoint(product)
    assert reach[(FALSE_STATE, 5)] == frozenset()
    assert reach[("q1", 2)] == frozenset({2, 4, 3, 1})
    assert reach[("q0", 0)] == frozenset({0, 2, 4, 3, 1})

    assert score(aa, cfa) == {
        "q0": 5, "q1": 4, "q2": 3, "q4": 2,
        TRUE_STATE: 1, FALSE_STATE: 0}


def test_state_paired_with_several_locations_takes_best_reach():
    cfa = source_to_cfa(DIAMOND)
    aa = AssumptionAutomaton(name="multi", initial="q0")
    for name, loc in (("q0", 0), ("q1", 2), ("qm", 4), ("q4", 3)):
        aa.add_state(name, loc)
    aa.add_transition("q0", 0, "q1")
    aa.add_transition("q1", 1, "qm")   # both assume edges reach qm,
    aa.add_transition("q1", 3, "qm")   # pairing it with locations 4 and 5
    aa.add_transition("qm", 2, "q4")
    aa.add_transition("qm", 4, FALSE_STATE)
    aa.add_transition("q4", 5, TRUE_STATE)

    reach = reach_fixpoint(compose(aa, cfa))
    assert reach[("qm", 4)] == frozenset({4, 3, 1})
    assert reach[("qm", 5)] == frozenset({5})
    assert reach[("q1", 2)] == frozenset({2, 4, 5, 3, 1})

    assert score(aa, cfa) == {
        "q0": 6, "q1": 5, "qm": 3, "q4": 2,
        TRUE_STATE: 1, FALSE_STATE: 0}


def test_scores_for_shipped_partial_automaton():
    cfa = fixture_cfa("bigloop.c")
    aa = parse_aa(golden("bigloop_partial.aa"))
    assert score(aa, cfa) == {
        "q0": 6, "q1": 5, "q2": 3, "q3": 1, "q4": 2,
        TRUE_STATE: 1, FALSE_STATE: 0}


def test_unmatched_statement_falls_into_false():
    cfa = source_to_cfa(CHAIN)
    aa = AssumptionAutomaton(name="stub", initial="q0")
    aa.add_state("q0", 0)
    reach = reach_fixpoint(compose(aa, cfa))
    assert reach[("q0", 0)] == frozenset({0})
    assert score(aa, cfa) == {"q0": 1, FALSE_STATE: 0}


def test_true_paired_states_keep_expanding():
    cfa = source_to_cfa(CHAIN)
    aa = AssumptionAutomaton(name="early", initial="q0")
    aa.add_state("q0", 0)
    aa.add_transition("q0", 0, TRUE_STATE)
    product = compose(aa, cfa)
    assert (TRUE_STATE, 2) in product.states
    assert (TRUE_STATE, 3) in product.states
    assert score(aa, cfa)[TRUE_STATE] == 3  # reach of (TRUE, 2)


def test_unreachable_declared_state_gets_no_score():
    cfa = source_to_cfa(CHAIN)
    aa = _chain_aa()
    aa.add_state("qdead", 3)
    assert "qdead" not in score(aa, cfa)


def test_reach_contains_own_location_and_is_monotone_along_edges():
    cfa = source_to_cfa(DIAMOND)
    product = compose(_diamond_aa(), cfa)
    reach = reach_fixpoint(product)
    for state in product.states:
        q, loc = state
        if q == FALSE_STATE:
            assert reach[state] == frozenset()
            continue
        assert loc in reach[state]
        for nxt in product.successors[state]:
            assert reach[nxt] <= reach[state]


class _CountingSuccessors(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_reach_fixpoint_settles_a_chain_in_one_sweep():
    # An interrupted run over a long straight-line program leaves a product
    # that is one chain: every edge leads later in its breadth-first order,
    # so one sweep against that order settles it, not one per state.
    body = "".join(f"  a = {i};\n" for i in range(299))
    cfa = source_to_cfa("int main() {\n  int a = 0;\n" + body +
                        "  return 0;\n}\n")
    aa = explore(cfa, Spec.assertions(), Budget(max_nodes=200)).aa
    product = compose(aa, cfa)
    assert product.forward
    product.successors = _CountingSuccessors(product.successors)
    reach = reach_fixpoint(product)
    assert product.successors.gets <= len(product.states)
    # Entry is location 0 and exit 1; the run expanded 0 and 2..199.
    assert reach[product.initial] == {0} | set(range(2, 200))


def _swept_until_unchanged(product):
    """The reach fixpoint by the plain rule: sweep until no set changes."""
    reach = {state: frozenset() for state in product.states}
    changed = True
    while changed:
        changed = False
        for state in reversed(product.states):
            q, loc = state
            if q == FALSE_STATE:
                continue
            new = frozenset({loc}).union(
                *(reach[nxt] for nxt in product.successors[state]))
            if new != reach[state]:
                reach[state] = new
                changed = True
    return reach


ALL_TRUE = "AUTOMATON all\nINITIAL __TRUE\nEND\n"
UNEVEN_DIAMOND = ("int nondet();\n"
                  "int main() { int x = nondet(); if (x > 0) { x = 1; "
                  "x = 3; x = 4; } else { x = 2; } return 0; }")
# Edges: 1: L2->L4 assume x>0, then 2: L4->L5, 3: L5->L6, 4: L6->L3;
#        5: L2->L7 assume !(x>0), then 6: L7->L3.  Breadth-first, L3 is
#        found through the else side first, so edge 4 leads back in that
#        order without a cycle.
SELF_LOOP = ("int nondet();\n"
             "int main() { int x = nondet(); while (x > 0) { } return 0; }")
# Edges: 0: L0->L2 x=nondet(); 1: L2->L3 assume !(x>0); 2: L2->L2 assume x>0.


@pytest.mark.parametrize("source, forward", [
    (DIAMOND, True), (UNEVEN_DIAMOND, False), (TWO_CYCLE, False),
    (SELF_LOOP, False)])
def test_reach_fixpoint_matches_sweeping_until_unchanged(source, forward):
    cfa = source_to_cfa(source)
    product = compose(parse_aa(ALL_TRUE), cfa)
    assert product.forward is forward
    reach = reach_fixpoint(product)
    assert reach == _swept_until_unchanged(product)
    assert reach[product.initial] == set(cfa.nodes)


def test_reach_fixpoint_matches_sweeping_on_emitted_automata():
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        for strategy in ("bfs", "dfs-postorder"):
            aa = explore(cfa, Spec.assertions(), Budget(max_nodes=60),
                         make_strategy(strategy)).aa
            product = compose(aa, cfa)
            assert reach_fixpoint(product) == \
                _swept_until_unchanged(product), (name, strategy)


def test_edges_back_into_false_states_keep_a_product_forward():
    # Every unrolled iteration of an interrupted bigloop run leaves the
    # loop into one shared FALSE state, found from the first iteration.
    cfa = fixture_cfa("bigloop.c")
    aa = explore(cfa, Spec.assertions(), Budget(max_nodes=60)).aa
    product = compose(aa, cfa)
    position = {state: i for i, state in enumerate(product.states)}
    back = [nxt for state in product.states
            for nxt in product.successors[state]
            if position[nxt] <= position[state]]
    assert back and all(q == FALSE_STATE for q, _loc in back)
    assert product.forward


def test_a_built_product_is_swept_until_unchanged():
    # Product() does not claim its edges lead forward: the back edge from
    # b to a needs a second sweep.
    product = Product(initial=("a", 0), states=[("a", 0), ("b", 1)],
                      successors={("a", 0): [("b", 1)],
                                  ("b", 1): [("a", 0)]})
    assert reach_fixpoint(product) == {("a", 0): {0, 1}, ("b", 1): {0, 1}}


def _best_set_sizes(reach):
    """`score`'s rule read from the sets: each state's largest set."""
    best = {}
    for (q, _loc), locs in reach.items():
        best[q] = max(best.get(q, 0), len(locs))
    return best


# Locations need not be dense, start at 0 or be non-negative: this product
# pairs states with 7, -3, 1000 and -40, and location 1000 appears first
# with FALSE.  The cycle b -> c -> b needs a second sweep.
SPARSE = Product(
    initial=("a", 7),
    states=[("a", 7), ("b", -3), (FALSE_STATE, 1000), ("c", 1000),
            ("d", -40)],
    successors={("a", 7): [("b", -3), (FALSE_STATE, 1000)],
                ("b", -3): [("c", 1000)],
                (FALSE_STATE, 1000): [],
                ("c", 1000): [("b", -3), ("d", -40)],
                ("d", -40): []})
SPARSE_REACH = {("a", 7): {7, -3, 1000, -40},
                ("b", -3): {-3, 1000, -40},
                (FALSE_STATE, 1000): set(),
                ("c", 1000): {1000, -3, -40},
                ("d", -40): {-40}}


def test_reach_sets_over_sparse_and_negative_locations():
    reach = reach_fixpoint(SPARSE)
    swept = _swept_until_unchanged(SPARSE)
    for state in SPARSE.states:
        assert reach[state] == swept[state] == SPARSE_REACH[state]
        assert isinstance(reach[state], frozenset)
    assert reach[(FALSE_STATE, 1000)] == frozenset()
    assert len(reach) == len(SPARSE.states)
    assert list(reach) == SPARSE.states
    assert reach == SPARSE_REACH and SPARSE_REACH == reach
    assert reach == swept and swept == reach
    assert reach != {**SPARSE_REACH, ("d", -40): {-40, 7}}
    with pytest.raises(TypeError):
        reach[("d", -40)] = frozenset()  # read-only
    assert _best_set_sizes(reach) == {
        "a": 4, "b": 3, "c": 3, "d": 1, FALSE_STATE: 0}


def test_scores_are_the_sizes_of_the_swept_sets():
    for name in ALL_FIXTURES:
        cfa = fixture_cfa(name)
        for strategy in ("bfs", "dfs-postorder"):
            aa = explore(cfa, Spec.assertions(), Budget(max_nodes=60),
                         make_strategy(strategy)).aa
            swept = _swept_until_unchanged(compose(aa, cfa))
            assert score(aa, cfa) == _best_set_sizes(swept), (name, strategy)
