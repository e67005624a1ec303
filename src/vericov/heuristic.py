"""Scores that steer exploration toward unexplored program regions.

An assumption automaton splits the program into a region the producing
analysis finished and a region it did not reach.  Pairing the automaton
with the control-flow automaton gives a product whose states say "the
analysis is at this location with this much of the condition left".  For
each product state we compute the set of locations reachable before the
automaton falls into FALSE; the size of that set scores how much unexplored
program lies ahead.  The dfs-postorder+score traversal ranks a node's
children by postorder first, so a score decides only between children at
one location.

The sets are kept as bit masks over the product's locations, so they take
about states x locations / 8 bytes; a set is built as a frozenset only when
it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Tuple

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
            nxt = (step(aa, q, edge.id), edge.dst)
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


class _ReachSets(Mapping[ProductState, FrozenSet[int]]):
    """Reach sets as bit masks, read as a read-only mapping of frozensets
    built on access.  Bit i of a mask stands for `locations[i]`; the
    states iterate in `product.states` order."""

    def __init__(self, masks: Dict[ProductState, int], locations: List[int]):
        self.masks = masks
        self.locations = locations

    def __getitem__(self, state: ProductState) -> FrozenSet[int]:
        bits = bin(self.masks[state])[:1:-1]  # lowest bit first
        return frozenset(loc for loc, bit in zip(self.locations, bits)
                         if bit == "1")

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[ProductState]:
        return iter(self.masks)


def reach_fixpoint(product: Product) -> _ReachSets:
    """Least fixpoint of: Reach(p) = {loc} ∪ successors' reach, FALSE = ∅.

    Iterates from the empty map, so cycles converge to the set of
    locations visitable before the automaton enters FALSE.  Each sweep runs
    against the order of `product.states`, last state first.  When the
    product is `forward`, each state's successors are final before it is
    reached (a FALSE state's empty set is final from the start), so one
    sweep settles them all; otherwise the sweeps repeat until nothing
    changes.

    Each set is an `int` mask whose bit i stands for the i-th distinct
    location in `product.states` order, about states x locations / 8 bytes
    in all.  The mapping returned builds a state's frozenset when it is
    read; its `masks` hold the bits.
    """
    bit: Dict[int, int] = {}
    for _q, loc in product.states:
        if loc not in bit:
            bit[loc] = 1 << len(bit)
    reach = dict.fromkeys(product.states, 0)
    changed = True
    while changed:
        changed = False
        for state in reversed(product.states):
            q, loc = state
            if q == FALSE_STATE:
                continue
            acc = bit[loc]
            for nxt in product.successors.get(state, []):
                acc |= reach[nxt]
            if acc != reach[state]:
                reach[state] = acc
                changed = not product.forward
    return _ReachSets(reach, list(bit))


def score(aa: AssumptionAutomaton, cfa: Cfa) -> Dict[str, int]:
    """Per automaton state: the best reach-set size over its pairings.

    States absent from the reachable product get no entry; FALSE scores 0.
    The sizes are the bit counts of `reach_fixpoint`'s masks; no set is
    built.
    """
    product = compose(aa, cfa)
    scores: Dict[str, int] = {}
    for (q, _loc), mask in reach_fixpoint(product).masks.items():
        size = mask.bit_count()
        if size > scores.get(q, -1):  # FALSE's mask is 0: it scores 0
            scores[q] = size
    return scores
