"""Scores that steer exploration toward unexplored program regions.

An assumption automaton splits the program into a region the producing
analysis finished and a region it did not reach.  Pairing the automaton
with the control-flow automaton gives a product whose states say "the
analysis is at this location with this much of the condition left".  For
each product state we compute the set of locations reachable before the
automaton falls into FALSE; the size of that set scores how much unexplored
program lies ahead.  A traversal that prefers high scores digs into the
unfinished region first, which is where new coverage witnesses live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from .automaton import FALSE_STATE, AssumptionAutomaton, step
from .cfa import Cfa

ProductState = Tuple[str, int]  # (automaton state, cfa node)


@dataclass
class Product:
    """Synchronous product of an assumption automaton and a CFA."""

    initial: ProductState
    states: List[ProductState] = field(default_factory=list)
    successors: Dict[ProductState, List[ProductState]] = field(default_factory=dict)


def compose(aa: AssumptionAutomaton, cfa: Cfa) -> Product:
    """Product reachable from (initial, entry).

    FALSE-paired states appear as targets but have no successors: walks
    stop there, which is exactly the cut the reach sets must respect.
    """
    initial = (aa.initial, cfa.entry)
    product = Product(initial=initial)
    seen = {initial}
    product.states.append(initial)
    # The loop also visits the states appended while it runs: BFS order.
    for state in product.states:
        q, loc = state
        if q == FALSE_STATE:
            product.successors[state] = []
            continue
        succs: List[ProductState] = []
        for edge in cfa.out_edges(loc):
            nxt = (step(aa, q, edge.stmt.id), edge.dst)
            succs.append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                product.states.append(nxt)
        product.successors[state] = succs
    return product


def reach_fixpoint(product: Product) -> Dict[ProductState, FrozenSet[int]]:
    """Least fixpoint of: Reach(p) = {loc} ∪ successors' reach, FALSE = ∅.

    Iterates from the empty map, so cycles converge to the set of
    locations visitable before the automaton enters FALSE.  Each sweep runs
    against the breadth-first order of `product.states`, so an acyclic
    chain settles in one sweep (and one more to see that nothing changed)
    instead of one sweep per state.
    """
    reach: Dict[ProductState, FrozenSet[int]] = {
        state: frozenset() for state in product.states}
    changed = True
    while changed:
        changed = False
        for state in reversed(product.states):
            q, loc = state
            if q == FALSE_STATE:
                continue
            acc = {loc}
            for nxt in product.successors.get(state, []):
                acc.update(reach[nxt])
            new = frozenset(acc)
            if new != reach[state]:
                reach[state] = new
                changed = True
    return reach


def score(aa: AssumptionAutomaton, cfa: Cfa) -> Dict[str, int]:
    """Per automaton state: the best reach-set size over its pairings.

    States absent from the reachable product get no entry; FALSE scores 0.
    """
    product = compose(aa, cfa)
    reach = reach_fixpoint(product)
    scores: Dict[str, int] = {}
    for state, locs in reach.items():
        q, _loc = state
        if q == FALSE_STATE:
            scores[q] = 0
            continue
        scores[q] = max(scores.get(q, 0), len(locs))
    return scores
