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
    # Whether every successor not paired with FALSE comes later in
    # `states` than its source.
    forward: bool = False


def compose(aa: AssumptionAutomaton, cfa: Cfa) -> Product:
    """Product reachable from (initial, entry).

    FALSE-paired states appear as targets but have no successors: walks
    stop there, which is exactly the cut the reach sets must respect.
    """
    initial = (aa.initial, cfa.entry)
    product = Product(initial=initial, states=[initial])
    states, successors = product.states, product.successors
    seen = {initial}
    forward = True
    # The loop also visits the states appended while it runs: BFS order.
    # The states before `state` are exactly those already in `successors`.
    for state in states:
        q, loc = state
        if q == FALSE_STATE:
            successors[state] = []
            continue
        succs: List[ProductState] = []
        for edge in cfa.out_edges(loc):
            nxt = (step(aa, q, edge.stmt.id), edge.dst)
            succs.append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
            elif forward and nxt[0] != FALSE_STATE and \
                    (nxt == state or nxt in successors):
                forward = False
        successors[state] = succs
    product.forward = forward
    return product


def reach_fixpoint(product: Product) -> Dict[ProductState, FrozenSet[int]]:
    """Least fixpoint of: Reach(p) = {loc} ∪ successors' reach, FALSE = ∅.

    Iterates from the empty map, so cycles converge to the set of
    locations visitable before the automaton enters FALSE.  Each sweep runs
    against the order of `product.states`, last state first.  When the
    product is `forward`, each state's successors are final before it is
    reached (a FALSE state's empty set is final from the start), so one
    sweep settles them all; otherwise the sweeps repeat until nothing
    changes.
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
                changed = not product.forward
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
