"""Budget-limited reachability exploration over abstract value states.

The explorer runs an explicit-value analysis.  An abstract state is a
tuple indexed by the CFA's variable numbering (`Cfa.numbering`): each
entry is a concrete integer, ``TOP`` (any integer) or ``UNASSIGNED``.  A
bitmask beside it marks the tops that are *fresh*: assigned from nondet()
and never read since, hence genuinely unconstrained.  States are organized
as an abstract reachability tree whose edges carry CFA statements;
interrupting the analysis and serializing the tree's explored region
yields an assumption automaton.

Covering (stopping re-expansion of already-represented states) is what
makes loops converge, but merging abstract states can hide path
constraints: a ``top`` that has passed through an assume no longer tells
us which integers are actually reachable, and merging on it could lose
the only witness of a later branch.  The policy here is therefore strict:
a node is covered only when valuations agree pointwise and every ``top``
variable still live at the location is *fresh* on both sides (assigned
from nondet() and never read since, hence genuinely unconstrained).  Dead
variables use plain subsumption, an unassigned one matching only an
unassigned one.  Coverers are looked up by what the policy requires to
match exactly: the location (and automaton state) and the values at the
bits live there.  Subsumption then compares dead variables only, and only
within that group, so a cover check never scans the whole location.
Candidate counterexamples are always confirmed by concrete replay before
being reported.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import lang
from .automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton, step)
from .cfa import (ASSERT, ASSIGN, ASSUME, Cfa, Edge, Numbering, Statement,
                  live_variables, postorder_index)

# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


# The two non-integer entries of a valuation, compared by identity.
TOP = lang.TOP  # any integer
UNASSIGNED = "unassigned"

Valuation = Tuple[object, ...]  # per variable number: int | TOP | UNASSIGNED


def truth(value: object) -> Optional[bool]:
    if value is TOP:
        return None
    return value != 0


# ---------------------------------------------------------------------------
# Exploration inputs and outputs
# ---------------------------------------------------------------------------

ASSERTIONS = "assertions"
COVER = "cover"

STATUS_FRONTIER = "frontier"
STATUS_EXPANDED = "expanded"
STATUS_COVERED = "covered-by"
STATUS_PRUNED = "pruned"

SAFE = "safe"
COUNTEREXAMPLES = "counterexamples"
UNKNOWN = "unknown"

DEFAULT_NONDET_DOMAIN: Tuple[int, ...] = tuple(range(-8, 9))
DEFAULT_REPLAY_STEP_LIMIT = 2_000_000


@dataclass
class Spec:
    """What counts as a violation during exploration.

    * assertions: a confirmed failing assert.
    * cover: a feasible, assertion-clean path into exit that exercises at
      least one statement from `remaining` while the given automaton has
      not yet entered FALSE.  With `stop_on_violation`, a confirmed
      failing assert aborts the whole exploration (bug short-circuit).
    """

    kind: str
    remaining: FrozenSet[int] = frozenset()
    aa: Optional[AssumptionAutomaton] = None
    stop_on_violation: bool = False

    @staticmethod
    def assertions() -> "Spec":
        return Spec(ASSERTIONS)

    @staticmethod
    def cover(remaining, aa: AssumptionAutomaton,
              stop_on_violation: bool = False) -> "Spec":
        remaining = frozenset(remaining)
        if not remaining:
            raise ValueError("cover spec needs a non-empty remaining set")
        return Spec(COVER, remaining, aa, stop_on_violation)


@dataclass
class Budget:
    """Positive resource limits; None means unlimited.  `max_nodes`
    counts the nodes one `explore` call creates."""

    time_limit: Optional[float] = 900.0
    max_nodes: Optional[int] = None
    max_counterexamples: int = 10

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_counterexamples <= 0:
            raise ValueError("max_counterexamples must be positive")


@dataclass
class Execution:
    """A statement path plus one concrete choice per nondet occurrence."""

    statements: Tuple[int, ...]
    witness: Dict[int, int]


@dataclass
class ArtNode:
    """A node of the abstract reachability tree.  `valuation` is its
    abstract state over the CFA's variable numbering; bit i of `fresh` is
    set when variable i is a fresh top."""

    id: int
    cfa_node: int
    valuation: Valuation
    parent: Optional[int]
    incoming_stmt: Optional[int]
    status: str = STATUS_FRONTIER
    covered_by: Optional[int] = None
    aa_state: Optional[str] = None
    tracked: FrozenSet[int] = frozenset()
    fresh: int = 0


@dataclass
class ArtStats:
    nodes_created: int = 0
    nodes_expanded: int = 0
    nodes_frontier: int = 0
    nodes_covered: int = 0
    nodes_pruned: int = 0


@dataclass
class ExplorationResult:
    verdict: str
    counterexamples: List[Execution]
    cfa: Cfa
    art_stats: ArtStats
    bug_execution: Optional[Execution] = None
    nodes: List[ArtNode] = field(default_factory=list)
    # The tree of a cover-mode explore, until an explore resumes it.
    _tree: Optional["_Explorer"] = field(default=None, repr=False,
                                         compare=False)

    @property
    def bug_found(self) -> bool:
        return self.bug_execution is not None

    @cached_property
    def aa(self) -> AssumptionAutomaton:
        """The explored region as an assumption automaton, emitted on
        first read."""
        return emit_assumption_automaton(self.nodes, self.cfa, self.verdict)


# ---------------------------------------------------------------------------
# Traversal strategies
# ---------------------------------------------------------------------------

BFS = "bfs"
DFS_POSTORDER = "dfs-postorder"
DFS_POSTORDER_SCORE = "dfs-postorder+score"
STRATEGIES = (BFS, DFS_POSTORDER, DFS_POSTORDER_SCORE)


class MissingScores(Exception):
    pass


@dataclass
class TraversalStrategy:
    kind: str
    scores: Optional[Dict[str, int]] = None


def make_strategy(kind: str, scores: Optional[Dict[str, int]] = None) -> TraversalStrategy:
    if kind not in STRATEGIES:
        raise ValueError(f"unknown strategy kind {kind!r}")
    if kind == DFS_POSTORDER_SCORE and scores is None:
        raise MissingScores("dfs-postorder+score needs a score map")
    return TraversalStrategy(kind, scores)


# ---------------------------------------------------------------------------
# Concrete replay
# ---------------------------------------------------------------------------

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"


@dataclass
class ReplayResult:
    verdict: str
    witness: Optional[Dict[int, int]] = None


# Witness searches already run: path -> result.
_Searches = Dict[Tuple[int, ...], ReplayResult]

_PlanStep = Tuple[Statement, int, int]  # statement, read mask, write bit
# Where a run can resume: a statement's plan index, copies of the
# environment and the dependency record before it, and the choices used
# before it.
_Checkpoint = Tuple[int, Dict[str, int], Dict[int, int], int]


def _run_path(plan: Sequence[_PlanStep], choices: List[int], steps: int,
              marks: List[_Checkpoint]) -> Tuple[str, int, int]:
    """Run the path under the given nondet choices, `steps` statements at
    most.

    Returns (status, conflict, steps left) with status "ok" (every assume
    holds, and every assert except a final one, which fails), "fail"
    (some statement breaks that rule), "need" (one more nondet choice is
    required) or "out" (`steps` ran out first).  On "fail", bit i of
    `conflict` is set for each choice i the failing statement consumed
    and each choice the values it reads were computed from; `conflict` is
    0 otherwise.

    Every run that keeps all choices up to the highest one named fails
    the same way: each named choice was consumed after only lower ones,
    so the same nondet() occurrences take the same values and the
    statements combining them evaluate as here.  Agreeing on the named
    choices alone is not enough, since an `&&`/`||` skipping a nondet()
    at an unnamed lower choice can hand them to other occurrences.

    Checkpoints: `marks[k]` is the checkpoint of the statement that draws
    choice k, taken at its first draw; the run appends one per draw, and
    on "need" one for the missing choice.  A run starts from entry when
    `marks` is empty and otherwise resumes from `marks[-1]`, dropping the
    checkpoints of the choices it draws again.  The statements before a
    checkpoint read only choices below the ones its statement draws, so
    while those stay fixed, resuming is the same as running from entry.
    A resumed run is charged first for the statements it skips, so the
    steps run out exactly where they would from entry.
    """
    # env: variable -> value; depends: variable bit -> choices its value used
    if marks:
        mark = marks[-1]  # the first statement's checkpoint
        first, env, depends, used = mark
        env, depends = dict(env), dict(depends)
        del marks[used:]
        if steps < first:
            return "out", 0, 0
        steps -= first
    else:
        mark, first, env, depends, used = None, 0, {}, {}, 0

    def next_nondet() -> int:
        nonlocal used, mark
        if mark is None:
            mark = (i, dict(env), dict(depends), start)
        marks.append(mark)
        if used < len(choices):
            used += 1
            return choices[used - 1]
        raise _NeedChoice

    last = len(plan) - 1
    for i in range(first, len(plan)):
        if steps <= 0:
            return "out", 0, 0
        steps -= 1
        stmt, reads, write = plan[i]
        kind = stmt.kind
        if kind != ASSIGN and kind != ASSUME and kind != ASSERT:
            continue
        start = used
        try:
            value = lang.concrete_eval(stmt.expr, env, next_nondet)
        except _NeedChoice:
            return "need", 0, steps
        except lang.EvalError:  # division or modulo by zero
            value = None
        mark = None
        mask = (1 << used) - (1 << start)
        while reads:
            bit = reads & -reads
            mask |= depends[bit]
            reads ^= bit
        if value is None:
            return "fail", mask, steps
        if kind == ASSIGN:
            env[stmt.var] = value
            depends[write] = mask
        elif (value != 0) == (kind == ASSERT and i == last):
            return "fail", mask, steps
    return "ok", 0, steps


class _NeedChoice(Exception):
    pass


def _search_witness(edges: Sequence[Edge], variables: Numbering,
                    domain: Sequence[int], step_limit: int) -> ReplayResult:
    """Search nondet choices under which the path's run is "ok" (see
    `_run_path`), by conflict-directed backjumping (Prosser 1993).

    Each choice runs through `domain` in order, so the first witness found
    is the first in lexicographic order.  A failed run jumps to the
    highest choice its conflict names, tries that choice's next value and
    adds the rest of the conflict to that choice's record of why its
    values fail.  A choice out of values jumps the same way on that
    record; an empty conflict proves the path infeasible.

    The search relies on one rule: a backjump never changes a choice
    below the level it jumps to.  Every choice a conflict names sits at or
    below that level, so the nondet() occurrences that decided the failure
    keep their indices and values (see `_run_path`), and no run the jump
    skips can succeed.  When a level runs out of values and the search
    jumps lower, the choices in between change, and an `&&`/`||` skipping
    a nondet() there can move the level's occurrence to another index.
    That occurrence still runs whenever the occurrences its record names
    keep their values, because the choices deciding whether a nondet()
    runs are in every conflict that names it; and each of its values has
    already failed for reasons named in the record.

    Each run resumes from the checkpoint of the lowest choice changed
    since the last one (see `_run_path`): the level a failure jumped to,
    or the new level a "need" added.  Every choice below it is unchanged,
    so a search evaluates each statement about once per value tried at
    the choices before it, not once per run from entry.  `step_limit`
    still counts every statement of every run, skipped prefixes included.
    """
    plan = [(e.stmt, variables.reads[e.stmt.id], variables.writes[e.stmt.id])
            for e in edges]
    steps = step_limit
    stack: List[int] = []  # indices into domain, one per occurrence
    conflicts: List[int] = []  # per occurrence: why its values so far failed
    marks: List[_Checkpoint] = []  # per occurrence: where a run resumes
    last_value = len(domain) - 1
    while True:
        choices = [domain[i] for i in stack]
        status, conflict, steps = _run_path(plan, choices, steps, marks)
        if status == "out":
            return ReplayResult(INCONCLUSIVE)
        if status == "ok":
            return ReplayResult(FEASIBLE, dict(enumerate(choices)))
        if status == "need":
            if not domain:
                return ReplayResult(INFEASIBLE)
            stack.append(0)
            conflicts.append(0)
            continue
        while True:
            if not conflict:
                return ReplayResult(INFEASIBLE)
            level = conflict.bit_length() - 1
            del stack[level + 1:]
            del conflicts[level + 1:]
            conflicts[level] |= conflict ^ (1 << level)
            if stack[level] < last_value:
                stack[level] += 1
                break
            conflict = conflicts[level]
        del marks[level + 1:]


def _edges_for_path(cfa: Cfa, path: Sequence[int]) -> List[Edge]:
    edges = []
    expected = cfa.entry
    for stmt_id in path:
        edge = cfa.edge(stmt_id)
        if edge.src != expected:
            raise ValueError("path is not connected from entry")
        edges.append(edge)
        expected = edge.dst
    return edges


def replay(cfa: Cfa, path: Sequence[int],
           nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN,
           step_limit: int = DEFAULT_REPLAY_STEP_LIMIT) -> ReplayResult:
    """Search nondet choices under which every assume on the path holds,
    and every assert holds except a final one, which must fail.

    The path must start at entry and be edge-connected.  A path into exit
    ends in a `halt` (see `Cfa.validate`), so its witness is a feasible,
    assertion-clean execution; a path ending in an assert asks for a
    counterexample.  Returns feasible with the first witness in
    lexicographic domain order, or infeasible when no choices from the
    domain satisfy the path: each failed run backjumps to the last choice
    the failing statement depends on, so a guard that reads only its own
    choice is refuted in one sweep of the domain rather than once per
    combination of the choices before it.  Returns inconclusive when
    `step_limit` runs out first.  It counts one step per statement of
    every run, the prefix a resumed run skips included, so the answer is
    the same as replaying each run from entry.
    """
    edges = _edges_for_path(cfa, path)
    return _search_witness(edges, cfa.numbering(), nondet_domain, step_limit)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


class _CoverIndex:
    """Indexed nodes grouped by what the strict cover policy must match
    exactly.

    A group key is the node's location and automaton state and its
    valuation's entries at the bits live at the location, in variable
    number order, a fresh top as ``TOP``.  A coverer always shares the key
    of the node it covers, so the dead-variable subsumption test only runs
    inside one group.  A node with a constrained top on a live variable (a
    ``TOP`` whose fresh bit is clear) has no key: it can neither cover nor
    be covered.
    """

    __slots__ = ("live", "positions", "groups")

    def __init__(self, live: Dict[int, int]):
        self.live = live
        self.positions: Dict[int, Tuple[int, ...]] = {}  # location -> live bits
        self.groups: Dict[Tuple, List[int]] = {}

    def group(self, node: ArtNode) -> Optional[List[int]]:
        """The node's group, created empty if new; None when it has no key."""
        positions = self.positions.get(node.cfa_node)
        if positions is None:
            bits = reversed(bin(self.live[node.cfa_node]))
            positions = self.positions[node.cfa_node] = \
                tuple(i for i, bit in enumerate(bits) if bit == "1")
        valuation = node.valuation
        values = []
        for i in positions:
            value = valuation[i]
            if value is TOP and not node.fresh >> i & 1:
                return None
            values.append(value)
        key = (node.cfa_node, node.aa_state, tuple(values))
        return self.groups.setdefault(key, [])


class _Explorer:
    def __init__(self, cfa: Cfa, spec: Spec, budget: Budget,
                 strategy: TraversalStrategy, nondet_domain: Sequence[int]):
        self.cfa = cfa
        self.spec = spec
        self.budget = budget
        self.strategy = strategy
        self.domain = nondet_domain
        self.postorder = postorder_index(cfa)
        self.live = live_variables(cfa)
        self.variables = cfa.numbering()
        self.searches: _Searches = {}
        self.nodes: List[ArtNode] = []
        self.first = 0  # id of the first node the current run creates
        self.index = _CoverIndex(self.live)
        self.cex: List[Execution] = []
        self.bug: Optional[Execution] = None
        if strategy.kind == BFS:
            self.waitlist: deque = deque()
        else:
            self.waitlist = []

    # -- plumbing ------------------------------------------------------------

    def path_to(self, node: ArtNode, extra: Optional[int] = None) -> Tuple[int, ...]:
        path: List[int] = []
        cur: Optional[ArtNode] = node
        while cur is not None and cur.incoming_stmt is not None:
            path.append(cur.incoming_stmt)
            cur = self.nodes[cur.parent] if cur.parent is not None else None
        path.reverse()
        if extra is not None:
            path.append(extra)
        return tuple(path)

    def _replay_path(self, path: Tuple[int, ...]) -> ReplayResult:
        result = self.searches.get(path)
        if result is None:
            result = self.searches[path] = replay(self.cfa, path, self.domain)
        return result

    def _covers(self, j: ArtNode, v: ArtNode) -> bool:
        """Whether j covers v, both of one cover group: j tracks at least
        what v tracks, and j's dead variables subsume v's.  The group key
        makes the live entries equal, so only dead ones can differ."""
        if not j.tracked >= v.tracked:
            return False
        return all(jv == vv or (jv is TOP and vv is not UNASSIGNED)
                   for jv, vv in zip(j.valuation, v.valuation))

    def _coverers(self, group: List[int], node: ArtNode):
        """The group in insertion order, members with the node's valuation
        first."""
        rest = []
        for jid in group:
            if self.nodes[jid].valuation == node.valuation:
                yield jid
            else:
                rest.append(jid)
        yield from rest

    # -- node creation -------------------------------------------------------

    def make_root(self) -> ArtNode:
        aa_state = self.spec.aa.initial if self.spec.kind == COVER else None
        valuation = (UNASSIGNED,) * len(self.variables.index)
        root = ArtNode(0, self.cfa.entry, valuation, None, None,
                       aa_state=aa_state)
        if aa_state == FALSE_STATE:
            # Collection can never start: nothing to explore.
            root.status = STATUS_PRUNED
            self.nodes.append(root)
            return root
        self.nodes.append(root)
        self.waitlist.append(root)
        self.index.group(root).append(root.id)
        return root

    def create_child(self, parent: ArtNode, edge: Edge, valuation: Valuation,
                     fresh: int) -> Optional[ArtNode]:
        stmt = edge.stmt
        aa_state = None
        tracked = parent.tracked
        prune = False
        if self.spec.kind == COVER:
            aa_state = step(self.spec.aa, parent.aa_state, stmt.id)
            if aa_state != FALSE_STATE and stmt.id in self.spec.remaining:
                tracked = tracked | {stmt.id}
            if aa_state == FALSE_STATE and not tracked:
                prune = True
        node = ArtNode(len(self.nodes), edge.dst, valuation, parent.id,
                       stmt.id, aa_state=aa_state, tracked=tracked,
                       fresh=fresh)
        self.nodes.append(node)
        if prune:
            node.status = STATUS_PRUNED
            return node
        self.check_violation(node)
        group = self.index.group(node)
        if group is None:
            return node
        for jid in self._coverers(group, node):
            if self._covers(self.nodes[jid], node):
                node.status = STATUS_COVERED
                node.covered_by = jid
                return node
        group.append(node.id)
        return node

    def check_violation(self, node: ArtNode) -> None:
        if len(self.cex) >= self.budget.max_counterexamples:
            return
        if node.cfa_node != self.cfa.exit:
            return
        if node.tracked:
            path = self.path_to(node)
            result = self._replay_path(path)
            if result.verdict == FEASIBLE:
                self.cex.append(Execution(path, result.witness))

    def check_assert(self, parent: ArtNode, edge: Edge) -> None:
        """Candidate assertion violation at this edge; confirm by replay."""
        watching = self.spec.kind == ASSERTIONS or self.spec.stop_on_violation
        if not watching:
            return
        if self.spec.kind == ASSERTIONS and \
                len(self.cex) >= self.budget.max_counterexamples:
            return
        path = self.path_to(parent, extra=edge.stmt.id)
        result = self._replay_path(path)
        if result.verdict != FEASIBLE:
            return
        execution = Execution(path, result.witness)
        if self.spec.kind == ASSERTIONS:
            self.cex.append(execution)
        else:
            self.bug = execution

    # -- expansion -----------------------------------------------------------

    def expand(self, node: ArtNode) -> None:
        node.status = STATUS_EXPANDED
        children: List[ArtNode] = []
        for edge in self.cfa.out_edges(node.cfa_node):
            child = self.transfer(node, edge)
            if self.bug is not None:
                return
            if child is not None and child.status == STATUS_FRONTIER:
                children.append(child)
        self.push_children(children)

    def transfer(self, node: ArtNode, edge: Edge) -> Optional[ArtNode]:
        """The child down one edge.  Reading a variable clears its fresh
        bit: a read top is coupled to the context."""
        stmt = edge.stmt
        val = node.valuation
        index = self.variables.index
        read_fresh = node.fresh & ~self.variables.reads[stmt.id]
        if stmt.kind == ASSIGN:
            value = lang.abstract_eval(stmt.expr, val, index)
            out = list(val)
            out[index[stmt.var]] = value
            bit = self.variables.writes[stmt.id]
            fresh = read_fresh & ~bit
            if stmt.expr == lang.NONDET_EXPR:  # a fresh top
                fresh |= bit
            return self.create_child(node, edge, tuple(out), fresh)
        if stmt.kind == ASSUME:
            t = truth(lang.abstract_eval(stmt.expr, val, index))
            if t is False:
                return None
            if t is True:
                return self.create_child(node, edge, val, node.fresh)
            match = lang.implied_equality(stmt.expr)
            if match is not None and val[index[match[0]]] is TOP:
                out = list(val)
                out[index[match[0]]] = match[1]
                val = tuple(out)
            return self.create_child(node, edge, val, read_fresh)
        if stmt.kind == ASSERT:
            t = truth(lang.abstract_eval(stmt.expr, val, index))
            if t is not True:
                self.check_assert(node, edge)
                if self.bug is not None:
                    return None
            if t is False and self.spec.kind == COVER:
                # No assertion-clean continuation exists down this edge.
                child = ArtNode(len(self.nodes), edge.dst, val, node.id,
                                stmt.id, status=STATUS_PRUNED)
                self.nodes.append(child)
                return child
            fresh = node.fresh if t is not None else read_fresh
            return self.create_child(node, edge, val, fresh)
        # skip / halt
        return self.create_child(node, edge, val, node.fresh)

    def push_children(self, children: List[ArtNode]) -> None:
        if self.strategy.kind == BFS:
            self.waitlist.extend(children)
            return
        # Without a score map every score is 0: plain dfs-postorder.
        scores = self.strategy.scores or {}

        def key(c: ArtNode) -> Tuple:
            return (self.postorder[c.cfa_node], -scores.get(c.aa_state, 0),
                    c.id)

        self.waitlist.extend(sorted(children, key=key, reverse=True))

    def pop(self) -> ArtNode:
        if self.strategy.kind == BFS:
            return self.waitlist.popleft()
        return self.waitlist.pop()

    # -- narrowing -----------------------------------------------------------

    def narrow(self, spec: Spec, budget: Budget) -> None:
        """Prepare the tree for a cover spec whose remaining set is a
        subset of the current one's.

        Under the new spec a node tracks its current set intersected
        with the new remaining set, as it would in a fresh explore.  A
        cover `j.tracked >= v.tracked` survives intersection with one
        set, and a pruned node stays pruned, so every status stays sound;
        a fresh explore can form covers the larger sets ruled out.  A
        FALSE node left tracking nothing is pruned; its subtree and the
        nodes it covers are FALSE and track subsets of its set, so they
        are pruned with it.  Group keys do not hold tracked sets, so the
        cover index stays, less its pruned members, which can cover no
        node; so does the search record.  Every exit node is asked again,
        in creation order, and the waitlist keeps the nodes not pruned.
        """
        remaining = spec.remaining
        self.spec, self.budget = spec, budget
        self.cex, self.first = [], len(self.nodes)
        # Nodes share tracked sets; so do their narrowed sets.
        narrowed: Dict[FrozenSet[int], FrozenSet[int]] = {}
        for node in self.nodes:
            tracked = narrowed.get(node.tracked)
            if tracked is None:
                tracked = narrowed[node.tracked] = node.tracked & remaining
            node.tracked = tracked
            if not tracked and node.aa_state == FALSE_STATE:
                node.status = STATUS_PRUNED
                node.covered_by = None
            self.check_violation(node)
        nodes = self.nodes
        for group in self.index.groups.values():
            group[:] = [jid for jid in group
                        if nodes[jid].status != STATUS_PRUNED]
        self.waitlist = type(self.waitlist)(
            node for node in self.waitlist if node.status == STATUS_FRONTIER)

    # -- main loop -----------------------------------------------------------

    def run(self) -> ExplorationResult:
        start = time.monotonic()
        interrupted = False
        while self.waitlist:
            if self.bug is not None:
                break
            if len(self.cex) >= self.budget.max_counterexamples:
                break
            if self.budget.max_nodes is not None and \
                    len(self.nodes) - self.first >= self.budget.max_nodes:
                interrupted = True
                break
            if self.budget.time_limit is not None and \
                    time.monotonic() - start > self.budget.time_limit:
                interrupted = True
                break
            node = self.pop()
            self.expand(node)
        if self.cex:
            verdict = COUNTEREXAMPLES
        elif interrupted or self.bug is not None:
            verdict = UNKNOWN
        else:
            verdict = SAFE
        return ExplorationResult(
            verdict=verdict,
            counterexamples=self.cex,
            cfa=self.cfa,
            art_stats=self._stats(),
            bug_execution=self.bug,
            nodes=self.nodes,
            _tree=self if self.spec.kind == COVER else None,
        )

    def _stats(self) -> ArtStats:
        """Counts of the nodes the current run created."""
        stats = ArtStats(nodes_created=len(self.nodes) - self.first)
        for node in islice(self.nodes, self.first, None):
            if node.status == STATUS_EXPANDED:
                stats.nodes_expanded += 1
            elif node.status == STATUS_FRONTIER:
                stats.nodes_frontier += 1
            elif node.status == STATUS_COVERED:
                stats.nodes_covered += 1
            else:
                stats.nodes_pruned += 1
        return stats


def explore(cfa: Cfa, spec: Spec, budget: Budget,
            strategy: Optional[TraversalStrategy] = None,
            nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN,
            resume: Optional[ExplorationResult] = None) -> ExplorationResult:
    """Explore the program under the spec until a verdict or a budget stop.

    The CFA must pass `Cfa.validate`: the witness search of a path into
    exit relies on its ending in a `halt`.  Deterministic: identical
    inputs produce identical trees, automata and counterexample lists.  A
    node budget counts the nodes this call creates, and never truncates
    an expansion in progress; the node being expanded is completed first.

    `resume` continues the tree of an earlier cover-mode explore on the
    same CFA, automaton, strategy and domain, for a spec whose remaining
    set is a subset of that explore's.  The tree is narrowed to the new
    spec in place (see `_Explorer.narrow`), every exit node is asked
    again, and the exploration goes on from the nodes still waiting.  The
    earlier result's tree passes to the new one, so read the earlier
    result's nodes and automaton first; a result is resumed at most once.
    Witness searches travel with the tree: a path is searched once.  The
    new result's `art_stats` count only the nodes this call created.
    """
    if strategy is None:
        strategy = make_strategy(DFS_POSTORDER)
    if resume is None:
        ex = _Explorer(cfa, spec, budget, strategy, nondet_domain)
        ex.make_root()
        return ex.run()
    ex = resume._tree
    if ex is None or ex.bug is not None or spec.kind != COVER or \
            ex.cfa is not cfa or spec.aa is not ex.spec.aa or \
            spec.stop_on_violation != ex.spec.stop_on_violation or \
            not spec.remaining <= ex.spec.remaining or \
            strategy != ex.strategy or nondet_domain != ex.domain:
        raise ValueError("resume needs an unresumed cover-mode result of "
                         "the same CFA, automaton, strategy and domain, "
                         "and a spec remaining within its own")
    resume._tree = None
    ex.narrow(spec, budget)
    return ex.run()


# ---------------------------------------------------------------------------
# Automaton emission
# ---------------------------------------------------------------------------

_WHITESPACE = re.compile(r"\s+")


def emit_assumption_automaton(art: List[ArtNode], cfa: Cfa,
                              verdict: str) -> AssumptionAutomaton:
    """The explored region of an ART as an assumption automaton named
    after the CFA, each run of whitespace replaced by ``_`` so that the
    name stays one token of the text format.

    Expanded nodes become states, merged when their abstract states agree;
    covered nodes redirect to their coverer.  Edges into frontier or pruned
    nodes become explicit FALSE transitions.  On a Safe verdict every
    direction the analysis did not take is routed to TRUE instead, so FALSE
    is unreachable in the automaton of a completed exploration.
    """
    nodes = art
    aa = AssumptionAutomaton(name=_WHITESPACE.sub("_", cfa.name),
                             initial=FALSE_STATE)
    if not nodes or nodes[0].status != STATUS_EXPANDED:
        return aa

    def resolve(node: ArtNode) -> ArtNode:
        while node.status == STATUS_COVERED:
            node = nodes[node.covered_by]
        return node

    # Node id -> state name, None for a node that was not expanded.
    state_of: List[Optional[str]] = [None] * len(nodes)
    state_name: Dict[Tuple, str] = {}
    for node in nodes:
        if node.status != STATUS_EXPANDED:
            continue
        key = (node.cfa_node, node.valuation, node.aa_state, node.tracked)
        name = state_name.get(key)
        if name is None:
            name = state_name[key] = f"q{len(state_name)}"
            aa.location_of[name] = node.cfa_node
        state_of[node.id] = name

    aa.initial = state_of[0]
    transitions = aa.transitions
    # An expansion creates all of a node's children, so a stable sort by
    # parent (the root has none) visits each expanded node's children in
    # creation order, parents in id order.  Where merged states share a
    # statement, the first target in that order that is not FALSE wins.
    for child in sorted(islice(nodes, 1, None), key=attrgetter("parent")):
        src = state_of[child.parent]
        if src is None:
            continue
        key = (src, child.incoming_stmt)
        if transitions.get(key, FALSE_STATE) == FALSE_STATE:
            transitions[key] = state_of[resolve(child).id] or FALSE_STATE
    if verdict == SAFE:
        # A completed exploration proved the untaken and deliberately cut
        # directions irrelevant to the spec: route them to TRUE so FALSE
        # is unreachable in the emitted automaton.
        for node in nodes:
            if node.status != STATUS_EXPANDED:
                continue
            src = state_of[node.id]
            for edge in cfa.out_edges(node.cfa_node):
                key = (src, edge.stmt.id)
                if transitions.get(key, FALSE_STATE) == FALSE_STATE:
                    transitions[key] = TRUE_STATE
    return aa
