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
match exactly: each location and automaton state has one dict of cover
groups, keyed by the values at the bits live there.  Subsumption then
compares dead variables only, and only within one group, so a cover check
never scans the whole location.  A key is built only once a second node
arrives at its location and automaton state, so a node alone there costs
nothing in the width of the program.
Candidate counterexamples are always confirmed by concrete replay before
being reported.

A witness search goes on from where an earlier one stood.  Until one of
its runs first passes a tree node, a search does the same on every path
through that node.  So at each fork of the last searched path (a node
whose expansion pushed two or more children) the explorer keeps the
search's state when a run first passed there, or the result it ended
with if no run got that far.  A later search through the fork takes up
that state, or returns that result, and answers as a search from entry
would, steps included.

In cover mode a node whose automaton state has just entered FALSE, a
root of the region past FALSE, tracks all it ever will: what is left is
one assertion-clean continuation to exit.  Where the values the analysis
knows decide that continuation, the explorer walks it instead of building
it as nodes (see `_Explorer.walk`).  Reaching exit completes the root,
whose execution is the path into it, searched as every end is (every
assume and every assert on it holds), then the walked statements; a
failing assert or a location with no way on prunes it.  Anything the
known values leave open abandons the walk, and the root is expanded as
any node is.

An *end* is an exit node, or a root whose walk reached exit: where a
cover spec's executions are searched for.  Each end is searched once,
when it is reached, and the explorer keeps no record of the results.
Only assume edges branch (see `Cfa.validate`), so one expansion reaches
at most one end or failing assert, and a round checks its counterexample
budget before each expansion only: no end is reached with the round
full.  Narrowing asks no end again: an end whose search found nothing
would find nothing again, and an end whose execution was recorded, or
that tracked nothing, tracks nothing once the coverage rounds narrow the
remaining set.  A search that runs out of steps keeps the run from
ending `safe`.

The tree holds no object per node.  It is nine parallel lists indexed by
node id: location, valuation, parent, incoming statement, status,
coverer, automaton state, tracked set and fresh mask.  Nodes share the
values these hold where they can: an assume that changes nothing keeps
its parent's valuation, and a tracked set is its parent's until a
statement is added.  The cover groups add no object per node where
every variable is live: there a group's key is the valuation tuple the
tree already holds, and elsewhere a tuple of the live values.  A
location and automaton state holds the bare id of its first node, with
no key, until a second node arrives; a group holds a bare node id until
a second member joins it.  In a straight-line stretch every node is alone
at its location, and in a long concrete loop every iteration has its own
key, so most of either never grow.
`ExplorationResult.nodes` reads the lists as `ArtNode` records built on
access.
"""

from __future__ import annotations

import math
import re
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
                    Union)

from . import heuristic, lang
from .automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton, step)
from .cfa import (ASSERT, ASSIGN, ASSUME, Cfa, Edge, live_variables,
                  postorder_index)

# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


# The two non-integer entries of a valuation, compared by identity.
TOP = lang.TOP  # any integer
UNASSIGNED = "unassigned"

Valuation = Tuple[object, ...]  # per variable number: int | TOP | UNASSIGNED


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

    Construction rejects any other kind, and a cover spec with no
    automaton or an empty remaining set.
    """

    kind: str
    remaining: FrozenSet[int] = frozenset()
    aa: Optional[AssumptionAutomaton] = None
    stop_on_violation: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (ASSERTIONS, COVER):
            raise ValueError(f"unknown spec kind {self.kind!r}")
        self.remaining = frozenset(self.remaining)
        if self.kind == COVER and (not self.remaining or self.aa is None):
            raise ValueError("cover spec needs a non-empty remaining set"
                             " and an automaton")

    @staticmethod
    def assertions() -> "Spec":
        return Spec(ASSERTIONS)

    @staticmethod
    def cover(remaining, aa: AssumptionAutomaton,
              stop_on_violation: bool = False) -> "Spec":
        return Spec(COVER, remaining, aa, stop_on_violation)


@dataclass
class Budget:
    """Positive resource limits; None means unlimited.  `max_nodes`
    counts the nodes one `explore` call creates."""

    time_limit: Optional[float] = 900.0
    max_nodes: Optional[int] = None
    max_counterexamples: int = 10

    def __post_init__(self) -> None:
        # `not > 0` also rejects nan, which no elapsed time would exceed.
        if self.time_limit is not None and not self.time_limit > 0:
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
    """A node of the abstract reachability tree, as a record built when
    the tree is read.  `valuation` is its abstract state over the CFA's
    variable numbering; bit i of `fresh` is set when variable i is a fresh
    top."""

    id: int
    cfa_node: int
    valuation: Valuation
    parent: Optional[int]
    incoming_stmt: Optional[int]
    status: str
    covered_by: Optional[int]
    aa_state: Optional[str]
    tracked: FrozenSet[int]
    fresh: int


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
    # Per counterexample, what it exercises of a cover spec's remaining set
    # before the automaton gives up: its exit node's tracked set, which a
    # later resume leaves as recorded.  Empty under `Spec.assertions()`.
    exercised: List[FrozenSet[int]]
    cfa: Cfa
    art_stats: ArtStats
    bug_execution: Optional[Execution] = None
    # The tree, read-only; resumed rounds share it.
    nodes: Sequence[ArtNode] = ()
    # The explorer of a cover-mode explore, until an explore resumes it.
    _explorer: Optional["_Explorer"] = field(default=None, repr=False,
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


def make_strategy(name: str) -> str:
    """The strategy of that name, the order `explore` expands nodes in: the
    name itself, once it is one of `STRATEGIES`, and otherwise a
    ValueError.  dfs-postorder+score ranks by the scores of the cover
    spec's automaton, which the explorer works out itself."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy kind {name!r}")
    return name


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
    # Statements run, each run's skipped prefix included (see `_run_path`).
    steps: int = 0


_PlanStep = Tuple[Edge, int, int]  # edge, read mask, write bit
# Where a run can resume: a statement's plan index, copies of the
# environment and the dependency record before it, and the choices used
# before it.
_Checkpoint = Tuple[int, Dict[str, int], Dict[int, int], int]
# A search as it stood when one of its runs first arrived at a plan index:
# the choice stack, the conflict records, the checkpoints with the one of
# that index last, and the steps left when the run began.
_SearchState = Tuple[Tuple[int, ...], Tuple[int, ...], List[_Checkpoint], int]


def _run_path(plan: Sequence[_PlanStep], choices: List[int], steps: int,
              marks: List[_Checkpoint], forks: List[int],
              arrivals: List[List[_Checkpoint]]) -> Tuple[str, int, int]:
    """Run the path under the given nondet choices, `steps` statements at
    most.

    Returns (status, conflict, steps left) with status "ok" (every assume
    and every assert holds), "fail" (some statement does not), "need" (one
    more nondet choice is required) or "out" (`steps` ran out first).  On
    "fail", bit i of `conflict` is set for each choice i the failing
    statement consumed and each choice the values it reads were computed
    from; `conflict` is 0 otherwise.

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
    A checkpoint may also sit at a statement before the one drawing: the
    statements in between draw nothing, so they read only lower choices.
    A resumed run is charged first for the statements it skips, so the
    steps run out exactly where they would from entry.

    `forks` holds plan indices in descending order.  On arriving at the
    last of them, the run takes it off and appends to `arrivals` its
    checkpoints with one of that index last, from which a run can resume
    there (see `_search_witness`).
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

    fork = forks[-1] if forks else -1
    for i in range(first, len(plan)):
        if i == fork:
            arrivals.append(marks + [(i, dict(env), dict(depends), used)])
            forks.pop()
            fork = forks[-1] if forks else -1
        if steps <= 0:
            return "out", 0, 0
        steps -= 1
        edge, reads, write = plan[i]
        kind = edge.kind
        if kind != ASSIGN and kind != ASSUME and kind != ASSERT:
            continue
        start = used
        try:
            value = lang.concrete_eval(edge.expr, env, next_nondet)
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
            env[edge.var] = value
            depends[write] = mask
        elif not value:
            return "fail", mask, steps
    return "ok", 0, steps


class _NeedChoice(Exception):
    pass


def _no_choice() -> int:
    """The `next_nondet` of a walk, which has no choices to give."""
    raise _NeedChoice


def _search_witness(cfa: Cfa, path: Sequence[int], domain: Sequence[int],
                    step_limit: int, state: Optional[_SearchState],
                    forks: Sequence[int], counterexample: bool
                    ) -> Tuple[ReplayResult, List[_SearchState]]:
    """Search nondet choices under which the run of the path, a sequence
    of the CFA's statement ids, is "ok" (see `_run_path`), by
    conflict-directed backjumping (Prosser 1993).  A `counterexample`
    search asks for the path's last statement, an assert, to fail: its
    run reads it as an assume of the negated code (`lang.negate`), which
    draws the same nondet() occurrences and reads the same variables.

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

    Searches resume one another.  Until a search's runs first arrive at
    plan index j, each of them ends before j, so what the search has done
    by then depends only on the path's first j statements, the domain and
    the step limit: it is the same on every path that starts with those
    statements.  `state` is a search as it stood at such a moment (None:
    at entry, nothing run yet), and this search goes on from there, in
    that run at index j.  For each index in `forks`, ascending and beyond
    `state`'s, it returns the state at the first arrival there, for as
    many of them as its runs arrive at.  A search that ends infeasible or
    inconclusive with no run at index j ends the same way on every path
    that starts with its first j statements.
    """
    reads, writes = cfa.numbering().reads, cfa.numbering().writes
    plan = [(cfa.edges[i], reads[i], writes[i]) for i in path]
    if counterexample:
        edge, read, write = plan[-1]
        plan[-1] = (Edge(edge.src, edge.dst, edge.id, ASSUME, None,
                         lang.negate(edge.expr)), read, write)
    if state is None:
        stack, conflicts, marks, steps = [], [], [], step_limit
    else:
        stack, conflicts, marks, steps = state
        stack, conflicts, marks = list(stack), list(conflicts), list(marks)
    pending = list(reversed(forks))
    saved: List[_SearchState] = []
    arrivals: List[List[_Checkpoint]] = []
    last_value = len(domain) - 1
    while True:
        choices = [domain[i] for i in stack]
        began = steps
        status, conflict, steps = _run_path(plan, choices, steps, marks,
                                            pending, arrivals)
        if arrivals:
            saved += [(tuple(stack), tuple(conflicts), arrived, began)
                      for arrived in arrivals]
            arrivals.clear()
        if status == "out":
            return ReplayResult(INCONCLUSIVE, steps=step_limit), saved
        if status == "ok":
            return ReplayResult(FEASIBLE, dict(enumerate(choices)),
                                step_limit - steps), saved
        if status == "need" and domain:
            stack.append(0)
            conflicts.append(0)
            continue
        while conflict:  # a "need" without values has none
            level = conflict.bit_length() - 1
            del stack[level + 1:]
            del conflicts[level + 1:]
            conflicts[level] |= conflict ^ (1 << level)
            if stack[level] < last_value:
                stack[level] += 1
                break
            conflict = conflicts[level]
        else:  # an empty conflict
            return ReplayResult(INFEASIBLE, steps=step_limit - steps), saved
        del marks[level + 1:]


def replay(cfa: Cfa, path: Sequence[int],
           nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN,
           step_limit: int = DEFAULT_REPLAY_STEP_LIMIT,
           prefix: bool = False) -> ReplayResult:
    """Search nondet choices under which every assume on the path, a
    sequence of statement ids, holds, and every assert holds except a
    final one, which must fail: a path ending in an assert asks for a
    counterexample (`_search_witness`'s `counterexample` search).  In
    `prefix` mode a final assert must hold too, as every other statement
    must: the path is then the start of an assertion-clean execution, and
    its witness, on a path into exit, is a feasible, assertion-clean
    execution.

    The path must start at entry and be edge-connected.  Returns feasible
    with the first witness in lexicographic domain order, or infeasible
    when no choices from the domain satisfy the path: each failed run
    backjumps to the last choice the failing statement depends on, so a
    guard that reads only its own choice is refuted in one sweep of the
    domain rather than once per combination of the choices before it.
    Returns inconclusive when `step_limit` runs out first.  It counts one
    step per statement of every run, the prefix a resumed run skips
    included, so the answer, and the steps in it, are the same as
    replaying each run from entry.  The search starts at entry; the
    explorer's searches start where an earlier search along the same
    prefix stood (see `_search_witness`), and return what this one does.
    """
    expected, edge = cfa.entry, None
    for stmt_id in path:
        edge = cfa.edge(stmt_id)
        if edge.src != expected:
            raise ValueError("path is not connected from entry")
        expected = edge.dst
    counterexample = not prefix and edge is not None and edge.kind == ASSERT
    return _search_witness(cfa, path, nondet_domain, step_limit, None, (),
                           counterexample)[0]


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


class _Tree(Sequence[ArtNode]):
    """An exploration tree as parallel lists indexed by node id, read as a
    sequence of `ArtNode` records built on access.  The root is node 0,
    with no parent and no incoming statement."""

    def __init__(self) -> None:
        # One list per `ArtNode` field after the id, in field order.
        self.columns: Tuple[List, ...] = tuple([] for _ in range(9))
        (self.location, self.valuation, self.parent, self.incoming,
         self.status, self.covered_by, self.aa_state, self.tracked,
         self.fresh) = self.columns

    def add(self, location: int, valuation: Valuation,
            parent: Optional[int], incoming: Optional[int], status: str,
            aa_state: Optional[str] = None,
            tracked: FrozenSet[int] = frozenset(), fresh: int = 0) -> int:
        """Append a node that no node covers; returns its id."""
        self.location.append(location)
        self.valuation.append(valuation)
        self.parent.append(parent)
        self.incoming.append(incoming)
        self.status.append(status)
        self.covered_by.append(None)
        self.aa_state.append(aa_state)
        self.tracked.append(tracked)
        self.fresh.append(fresh)
        return len(self.location) - 1

    def __len__(self) -> int:
        return len(self.location)

    def __getitem__(self, i: int) -> ArtNode:
        i = range(len(self))[i]
        return ArtNode(i, *(column[i] for column in self.columns))

    def __iter__(self):
        return map(ArtNode, count(), *self.columns)


class _Explorer:
    def __init__(self, cfa: Cfa, spec: Spec, strategy: str,
                 nondet_domain: Sequence[int]):
        self.cfa = cfa
        self.spec = spec
        self.strategy = strategy
        self.domain = nondet_domain
        # Node -> postorder index, and automaton state -> score, worked
        # out at the first ordered fork.
        self.postorder: Optional[Dict[int, int]] = None
        self.scores: Dict[str, int] = {}
        cfa.validate()  # only assume edges branch: see `run`
        self.live = live_variables(cfa)
        self.variables = cfa.numbering()
        unset = self.live[cfa.entry]  # read on some path before any write
        if unset:
            raise ValueError("variables read before assignment: " + ", ".join(
                v for v, i in self.variables.index.items() if unset >> i & 1))
        # Whether some witness search ran out of steps: the run cannot
        # then be finished, in this round or any resumed one.
        self.inconclusive = False
        self.forks: Set[int] = set()  # nodes whose expansion pushed 2+ children
        # Along the last searched path, by ascending depth: (depth, fork,
        # the search's state on arriving there, or the result every search
        # through it returns).
        self.trail: List[Tuple[int, int, Union[_SearchState,
                                               ReplayResult]]] = []
        self.tree = _Tree()
        self.first = 0  # id of the first node the current run creates
        # What the current run charges against (see `run`): it stops once
        # the tree reaches `limit` nodes; a walk lowers it.
        self.limit: float = math.inf
        self.deadline = math.inf  # the clock reading the current run ends at
        # (location, automaton state) -> a bare id, or group key -> a bare
        # id or a list of ids (see `cover`).
        self.groups: Dict[Tuple[int, Optional[str]],
                          Union[int, Dict[object, Union[int, List[int]]]]] = {}
        self.positions: Dict[int, Tuple[int, ...]] = {}  # location -> live bits
        self.cex: List[Execution] = []
        self.exercised: List[FrozenSet[int]] = []  # parallel to `cex`
        self.bug: Optional[Execution] = None
        self.waitlist: deque = deque()  # bfs pops its left end, dfs its right

    # -- plumbing ------------------------------------------------------------

    def search(self, nid: int, edge: Optional[Edge] = None
               ) -> Tuple[ReplayResult, List[int]]:
        """The witness search of the path into `nid`, followed by `edge` if
        given, as `replay` would return it, and that path as a list of
        statement ids.  With `edge`, an assert, the search asks for a
        counterexample, in which that assert fails; without it, it asks
        for a run in which every assume and every assert on the path
        holds, as `replay`'s prefix mode does: the path into an exit node
        or into a walked root, whichever statement enters it.

        It resumes at the deepest fork of the last searched path that is
        a node of this one too, short of its end (see `_search_witness`).
        There it takes up the state that search kept, or returns the
        result it kept, and it keeps its own at the forks further down.
        """
        parent, incoming = self.tree.parent, self.tree.incoming
        nodes = [nid]
        while nid:
            nid = parent[nid]
            nodes.append(nid)
        nodes.reverse()
        path = [incoming[n] for n in nodes[1:]]
        if edge is not None:
            path.append(edge.id)
        trail = self.trail
        while trail and (trail[-1][0] >= len(path)
                         or nodes[trail[-1][0]] != trail[-1][1]):
            trail.pop()
        depth, state = (trail[-1][0], trail[-1][2]) if trail else (0, None)
        if type(state) is ReplayResult:
            return state, path
        forks = [d for d in range(depth + 1, len(path))
                 if nodes[d] in self.forks]
        # Read at call time, so that a test can shorten it.
        result, saved = _search_witness(self.cfa, path, self.domain,
                                        DEFAULT_REPLAY_STEP_LIMIT, state,
                                        forks, edge is not None)
        trail += [(d, nodes[d], s) for d, s in zip(forks, saved)]
        if result.verdict != FEASIBLE and len(saved) < len(forks):
            depth = forks[len(saved)]
            trail.append((depth, nodes[depth], result))
        return result, path

    def execution(self, nid: int, edge: Optional[Edge] = None,
                  tail: Tuple[int, ...] = ()) -> Optional[Execution]:
        """The execution `search` finds, its path followed by `tail`; None
        when it finds none.  A search that runs out of steps marks the
        explorer `inconclusive`."""
        result, path = self.search(nid, edge)
        if result.verdict != FEASIBLE:
            self.inconclusive |= result.verdict == INCONCLUSIVE
            return None
        return Execution(tuple(path) + tail, result.witness)

    # -- covering ------------------------------------------------------------

    def group_key(self, nid: int) -> object:
        """What the strict cover policy must match exactly beyond the
        node's location and automaton state, which pick its group dict:
        its valuation's entries at the bits live at the location, a fresh
        top as ``TOP``.  Where every variable is live that is the node's
        own valuation tuple, so no key is built; elsewhere it is a tuple
        of the live entries in variable number order.  A coverer always
        shares the key of the node it covers, so the dead-variable
        subsumption test only runs inside one group.  None for a node
        with a constrained top on a live variable (a ``TOP`` whose fresh
        bit is clear): it can neither cover nor be covered.  `cover` asks
        only for the nodes of a location and automaton state that a
        second node has reached, each at most once."""
        tree = self.tree
        location = tree.location[nid]
        positions = self.positions.get(location)
        if positions is None:
            bits = reversed(bin(self.live[location]))
            positions = self.positions[location] = \
                tuple(i for i, bit in enumerate(bits) if bit == "1")
        valuation, fresh = tree.valuation[nid], tree.fresh[nid]
        key = []
        for i in positions:
            value = valuation[i]
            if value is TOP and not fresh >> i & 1:
                return None
            key.append(value)
        return valuation if len(key) == len(valuation) else tuple(key)

    def _covers(self, j: int, v: int) -> bool:
        """Whether j covers v, both of one cover group: j tracks at least
        what v tracks, and j's dead variables subsume v's.  The group key
        makes the live entries equal, so only dead ones can differ."""
        tracked, valuation = self.tree.tracked, self.tree.valuation
        return tracked[j] >= tracked[v] and \
            all(jv == vv or (jv is TOP and vv is not UNASSIGNED)
                for jv, vv in zip(valuation[j], valuation[v]))

    def cover(self, nid: int) -> None:
        """Cover the node by the first member of its group that covers
        it, members with its valuation first, each in insertion order;
        otherwise add it to its group.  Each location and automaton state
        holds the bare id of the first node there, its key not yet
        worked out, and from the second node with a key on a dict of its
        groups by `group_key`; a group is a bare node id until a second
        member joins it.  A first node whose key turns out None (it can
        neither cover nor be covered) gives its place to the newcomer.
        Members pruned by narrowing cover no node and are skipped."""
        tree = self.tree
        place = (tree.location[nid], tree.aa_state[nid])
        groups = self.groups.setdefault(place, nid)
        if groups is nid:
            return
        key = self.group_key(nid)
        if key is None:
            return
        if type(groups) is int:
            first = self.group_key(groups)
            if first is None:
                self.groups[place] = nid
                return
            groups = self.groups[place] = {first: groups}
        group = groups.setdefault(key, nid)
        if group is nid:
            return
        members = (group,) if type(group) is int else group
        own = tree.valuation[nid]
        for jid in sorted(members, key=lambda j: tree.valuation[j] != own):
            if tree.status[jid] != STATUS_PRUNED and self._covers(jid, nid):
                tree.status[nid] = STATUS_COVERED
                tree.covered_by[nid] = jid
                return
        if type(group) is int:
            groups[key] = [group, nid]
        else:
            group.append(nid)

    # -- node creation -------------------------------------------------------

    def make_root(self) -> None:
        aa_state = self.spec.aa.initial if self.spec.kind == COVER else None
        valuation = (UNASSIGNED,) * len(self.variables.index)
        # With a FALSE initial state collection can never start.
        status = STATUS_PRUNED if aa_state == FALSE_STATE else STATUS_FRONTIER
        root = self.tree.add(self.cfa.entry, valuation, None, None, status,
                             aa_state)
        if status == STATUS_FRONTIER:
            self.waitlist.append(root)
            self.cover(root)

    def check_violation(self, nid: int, walked: Tuple[int, ...] = ()
                        ) -> None:
        """Search an end that tracks something, and record its execution
        if it has one: the path into an exit node, or the path into a
        completed root, on which every assume and every assert holds, then
        the `walked` statements (see `walk`).  An end is searched once,
        when it is reached; `run` leaves room for it (see
        `Cfa.validate`)."""
        tracked = self.tree.tracked[nid]
        if not tracked:
            return
        execution = self.execution(nid, tail=walked)
        if execution is not None:
            self.cex.append(execution)
            self.exercised.append(tracked)

    def check_assert(self, parent: int, edge: Edge) -> None:
        """Candidate assertion violation at this edge; confirm by replay.
        A node is expanded once, so nothing asks its edge twice, and the
        edge is its node's only out edge, so `run` leaves room for a
        counterexample (see `Cfa.validate`)."""
        if self.spec.kind == COVER and not self.spec.stop_on_violation:
            return
        execution = self.execution(parent, edge)
        if execution is None:
            return
        if self.spec.kind == ASSERTIONS:
            self.cex.append(execution)
            self.exercised.append(frozenset())
        else:
            self.bug = execution

    # -- expansion -----------------------------------------------------------

    def walk(self, root: int) -> bool:
        """Decide a FALSE root without creating a node, if the values the
        analysis knows decide its continuation; whether they did.

        A root is a node whose automaton state is FALSE and whose parent's
        is not.  Its tracked set can no longer grow, so all that is left
        is one assertion-clean path on to exit.  From the root's location
        and valuation the walk takes, at each location, the one out edge
        whose statement holds: a skip or halt, an assign, or an assume or
        assert that is not 0.  It evaluates each statement as a witness
        run does, with `lang.concrete_eval`, and reads only variables the
        valuation knows, so every run along the path into the root
        evaluates it the same way: the walk decides the continuation of
        each of them.
          * Reaching exit completes the root: its execution is the path
            into the root, searched as every end is, then the walked
            statements (see `check_violation`).
          * A location whose guards are all 0, or an assert that is 0,
            prunes the root: no assertion-clean continuation exists.  With
            `stop_on_violation` that assert is the bug `check_assert`
            would confirm, if the path into the root has a witness.
          * Anything else abandons the walk, and the root is expanded as
            any node is: a statement that reads a top, draws a nondet()
            value or divides by zero, a location with two ways on, a state
            the walk has been in before (Brent's cycle detection, so a
            loop that covering would end does not run to the budget),
            the node budget, or the time limit, read every 4,096
            statements.
        A walk that completes or prunes charges its statements to the node
        budget, as the nodes it replaces would have been charged.  An
        abandoned walk charges nothing: the nodes that expanding the root
        creates are charged, so the tree is the one a run without walks
        builds.
        """
        tree, cfa = self.tree, self.cfa
        location, exit_node = tree.location[root], cfa.exit
        if location == exit_node:  # asked when it was created
            return False
        variables = self.variables
        reads, writes = variables.reads, variables.writes
        valuation = tree.valuation[root]
        env = dict(zip(variables.index, valuation))
        tops = sum(1 << i for i, value in enumerate(valuation)
                   if value is TOP)
        out_edges, evaluate = cfa.out_edges, lang.concrete_eval
        left = self.limit - len(tree)  # the statements it may charge
        walked: List[int] = []
        seen, power = (location, dict(env)), 1
        while location != exit_node:
            if len(walked) >= left:
                return False
            if len(walked) & 4095 == 4095 and \
                    time.monotonic() > self.deadline:
                return False
            taken, value = None, 1
            for edge in out_edges(location):
                kind, result = edge.kind, 1
                if kind == ASSIGN or kind == ASSUME or kind == ASSERT:
                    if reads[edge.id] & tops:
                        return False
                    try:
                        result = evaluate(edge.expr, env, _no_choice)
                    except (_NeedChoice, lang.EvalError):
                        return False
                    if kind == ASSUME and not result:
                        continue
                if taken is not None:
                    return False
                taken, value = edge, result
            if taken is None or (taken.kind == ASSERT and not value):
                charged = len(walked)
                if taken is not None:
                    charged += 1  # the pruned child of the assert
                    if self.spec.stop_on_violation:
                        self.bug = self.execution(
                            root, tail=(*walked, taken.id))
                        if self.bug is not None:
                            return True
                tree.status[root] = STATUS_PRUNED
                self.limit -= charged
                return True
            if taken.kind == ASSIGN:
                env[taken.var] = value
                tops &= ~writes[taken.id]
            walked.append(taken.id)
            location = taken.dst
            if location == seen[0] and env == seen[1]:
                return False
            if len(walked) == power:
                seen, power = (location, dict(env)), power * 2
        self.limit -= len(walked)
        self.check_violation(root, tuple(walked))
        return True

    def expand(self, nid: int) -> None:
        """Create the node's child down each out edge its valuation does
        not refute, and push the children left uncovered.  A FALSE root
        in cover mode is walked first (see `walk`), and expanded only if
        the walk is abandoned.

        Reading a variable clears its fresh bit (a read top is coupled to
        the context), except in a guard that evaluates to a definite
        value.  A candidate assertion violation is confirmed by replay
        first, and in cover mode an assert that must fail leads to a
        pruned child: no assertion-clean continuation exists down it.  In
        cover mode a child steps the automaton and tracks the statement
        while the automaton has not entered FALSE; a FALSE child that
        tracks nothing is pruned.  Each other child is checked for a
        violation if it is at exit, then covered if it can be."""
        tree, spec = self.tree, self.spec
        status = tree.status
        status[nid] = STATUS_EXPANDED
        aa_state = tree.aa_state[nid]
        if aa_state == FALSE_STATE and \
                tree.aa_state[tree.parent[nid]] != FALSE_STATE and \
                self.walk(nid):
            return
        val, node_fresh = tree.valuation[nid], tree.fresh[nid]
        tracked = tree.tracked[nid]
        index, reads = self.variables.index, self.variables.reads
        exit_node = self.cfa.exit
        children: List[int] = []
        for edge in self.cfa.out_edges(tree.location[nid]):
            kind, stmt_id, expr = edge.kind, edge.id, edge.expr
            out, fresh = val, node_fresh
            if kind == ASSIGN:
                bit = self.variables.writes[stmt_id]
                values = list(val)
                values[index[edge.var]] = lang.abstract_eval(expr, val, index)
                out = tuple(values)
                fresh &= ~(reads[stmt_id] | bit)
                if expr == lang.NONDET_EXPR:  # a fresh top
                    fresh |= bit
            elif kind == ASSUME:
                value = lang.abstract_eval(expr, val, index)
                if value is TOP:
                    fresh &= ~reads[stmt_id]
                    match = lang.implied_equality(expr)
                    if match is not None and val[index[match[0]]] is TOP:
                        values = list(val)
                        values[index[match[0]]] = match[1]
                        out = tuple(values)
                elif value == 0:
                    continue
            elif kind == ASSERT:
                value = lang.abstract_eval(expr, val, index)
                if value is TOP or value == 0:
                    self.check_assert(nid, edge)
                    if self.bug is not None:
                        return
                    if value is TOP:
                        fresh &= ~reads[stmt_id]
                    elif spec.kind == COVER:
                        tree.add(edge.dst, val, nid, stmt_id, STATUS_PRUNED)
                        continue
            child_status, child_aa, child_tracked = \
                STATUS_FRONTIER, None, tracked
            if spec.kind == COVER:
                child_aa = step(spec.aa, aa_state, stmt_id)
                if child_aa == FALSE_STATE:
                    if not tracked:
                        child_status = STATUS_PRUNED
                elif stmt_id in spec.remaining and stmt_id not in tracked:
                    child_tracked = tracked | {stmt_id}
            child = tree.add(edge.dst, out, nid, stmt_id, child_status,
                             child_aa, child_tracked, fresh)
            if child_status == STATUS_FRONTIER:
                if edge.dst == exit_node:
                    self.check_violation(child)
                self.cover(child)
                if status[child] == STATUS_FRONTIER:
                    children.append(child)
        if len(children) > 1:
            self.forks.add(nid)
            if self.strategy != BFS:
                postorder, location = self.postorder, tree.location
                if postorder is None:
                    postorder = self.postorder = postorder_index(self.cfa)
                    # Without an automaton every score is 0: plain
                    # dfs-postorder.
                    if self.strategy == DFS_POSTORDER_SCORE and \
                            spec.kind == COVER:
                        self.scores = heuristic.score(spec.aa, self.cfa)
                scores, states = self.scores, tree.aa_state
                children.sort(key=lambda c: (postorder[location[c]],
                                             -scores.get(states[c], 0), c),
                              reverse=True)
        self.waitlist.extend(children)

    # -- narrowing -----------------------------------------------------------

    def narrow(self, spec: Spec) -> None:
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
        cover groups stay.  No path changes, so the search states kept
        along the last searched path stay too.  The waitlist keeps the
        nodes not pruned.

        No end is asked again: each was searched when it was reached, and
        tracks nothing the new spec needs, or finds nothing again.
        """
        remaining = spec.remaining
        self.spec = spec
        tree = self.tree
        self.cex, self.exercised, self.first = [], [], len(tree)
        status, aa_state = tree.status, tree.aa_state
        # Nodes share tracked sets; so do their narrowed sets.
        narrowed: Dict[FrozenSet[int], FrozenSet[int]] = {}
        for nid, tracked in enumerate(tree.tracked):
            new = narrowed.get(tracked)
            if new is None:
                new = narrowed[tracked] = tracked & remaining
            tree.tracked[nid] = new
            if not new and aa_state[nid] == FALSE_STATE:
                status[nid] = STATUS_PRUNED
                tree.covered_by[nid] = None
        self.waitlist = deque(nid for nid in self.waitlist
                              if status[nid] == STATUS_FRONTIER)

    # -- main loop -----------------------------------------------------------

    def run(self, budget: Budget, deadline: float) -> ExplorationResult:
        """Expand nodes until a verdict or a budget stop, at the latest
        once the clock reads past `deadline`.  The node budget counts the
        nodes the run creates and the statements its walks charge.  The
        counterexample budget is checked before each expansion, which
        records at most one execution or counterexample (see
        `Cfa.validate`).  A run in which some search ran out of steps is
        never `safe`."""
        interrupted = False
        location = self.tree.location
        self.deadline = deadline
        self.limit = math.inf if budget.max_nodes is None \
            else self.first + budget.max_nodes
        pop = self.waitlist.popleft if self.strategy == BFS \
            else self.waitlist.pop
        while self.waitlist:
            if self.bug is not None or \
                    len(self.cex) >= budget.max_counterexamples:
                break
            if len(location) >= self.limit or time.monotonic() > deadline:
                interrupted = True
                break
            self.expand(pop())
        if self.cex:
            verdict = COUNTEREXAMPLES
        elif interrupted or self.bug is not None or self.inconclusive:
            verdict = UNKNOWN
        else:
            verdict = SAFE
        return ExplorationResult(
            verdict=verdict,
            counterexamples=self.cex,
            exercised=self.exercised,
            cfa=self.cfa,
            art_stats=self._stats(),
            bug_execution=self.bug,
            nodes=self.tree,
            _explorer=self if self.spec.kind == COVER else None,
        )

    def _stats(self) -> ArtStats:
        """Counts of the nodes the current run created."""
        counts = Counter(islice(self.tree.status, self.first, None))
        return ArtStats(nodes_created=len(self.tree) - self.first,
                        nodes_expanded=counts[STATUS_EXPANDED],
                        nodes_frontier=counts[STATUS_FRONTIER],
                        nodes_covered=counts[STATUS_COVERED],
                        nodes_pruned=counts[STATUS_PRUNED])


def explore(cfa: Cfa, spec: Spec, budget: Budget,
            strategy: str = DFS_POSTORDER,
            nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN,
            resume: Optional[ExplorationResult] = None) -> ExplorationResult:
    """Explore the program under the spec until a verdict or a budget stop.

    A CFA that fails `Cfa.validate` is a ValueError, as the counterexample
    budget relies on only assume edges branching.  So is a CFA that can
    read a variable before assigning it, and a strategy that is not one of
    `STRATEGIES`.  Deterministic: identical inputs produce
    identical trees, automata and counterexample lists.  A node budget
    counts the nodes this call creates, and never truncates an expansion
    in progress; the node being expanded is completed first.  A witness
    search that runs out of steps leaves the verdict `unknown` where it
    would be `safe`.

    `resume` continues the tree of an earlier cover-mode explore on the
    same CFA, automaton, strategy and domain, for a spec whose remaining
    set is a subset of that explore's.  The tree is narrowed to the new
    spec in place (see `_Explorer.narrow`), and the exploration goes on
    from the nodes still waiting.  The earlier result's tree passes to
    the new one, so read the earlier result's nodes and automaton first;
    a result is resumed at most once.  Each end is searched once, and no
    end is asked again whose execution an earlier round recorded: the new
    remaining set is meant to leave out what those executions exercise,
    as the coverage rounds' does.  Each search goes on from the deepest
    fork it shares with the last one, whichever round made that (see
    `_Explorer.search`).  A searched path, like a counterexample's, is
    the statement ids of the tree edges from the root.  The new result's
    `art_stats` count only the nodes this call created, and the time
    limit counts from this call, narrowing included.
    """
    # A time limit is positive or None.
    deadline = time.monotonic() + (budget.time_limit or math.inf)
    strategy = make_strategy(strategy)
    if resume is None:
        ex = _Explorer(cfa, spec, strategy, nondet_domain)
        ex.make_root()
        return ex.run(budget, deadline)
    ex = resume._explorer
    if ex is None or ex.bug is not None or spec.kind != COVER or \
            ex.cfa is not cfa or spec.aa is not ex.spec.aa or \
            spec.stop_on_violation != ex.spec.stop_on_violation or \
            not spec.remaining <= ex.spec.remaining or \
            strategy != ex.strategy or nondet_domain != ex.domain:
        raise ValueError("resume needs an unresumed cover-mode result of "
                         "the same CFA, automaton, strategy and domain, "
                         "and a spec remaining within its own")
    resume._explorer = None
    ex.narrow(spec)
    return ex.run(budget, deadline)


# ---------------------------------------------------------------------------
# Automaton emission
# ---------------------------------------------------------------------------

_WHITESPACE = re.compile(r"\s+")


def emit_assumption_automaton(nodes: _Tree, cfa: Cfa,
                              verdict: str) -> AssumptionAutomaton:
    """The explored region of a tree as an assumption automaton named
    after the CFA, each run of whitespace replaced by ``_``, and ``_`` if
    the CFA has no name, so that the name is one token of the text format.

    Expanded nodes become states, merged when their abstract states agree;
    covered nodes redirect to their coverer.  States are looked up by
    location, automaton state and tracked set, and valuations compared or
    hashed only where two expanded nodes share all three.  States are
    named in the order of their first node.  Edges into frontier or pruned
    nodes become explicit FALSE transitions.  On a Safe verdict every
    direction the analysis did not take is routed to TRUE instead, so FALSE
    is unreachable in the automaton of a completed exploration.
    """
    aa = AssumptionAutomaton(name=_WHITESPACE.sub("_", cfa.name) or "_",
                             initial=FALSE_STATE)
    status, location = nodes.status, nodes.location
    if not status or status[0] != STATUS_EXPANDED:
        return aa

    # Node id -> state name, None for a node that was not expanded.
    state_of: List[Optional[str]] = [None] * len(status)
    # (location, automaton state, tracked set) -> the valuation and name of
    # its first state, or from its second state on valuation -> name.
    places: Dict[Tuple, Union[Tuple[Valuation, str],
                              Dict[Valuation, str]]] = {}
    location_of = aa.location_of
    valuation, aa_state, tracked = nodes.valuation, nodes.aa_state, \
        nodes.tracked
    expanded = [i for i, s in enumerate(status) if s == STATUS_EXPANDED]
    for i in expanded:
        place = (location[i], aa_state[i], tracked[i])
        named = places.get(place)
        own = valuation[i]
        if named is None:
            name = f"q{len(location_of)}"
            places[place] = (own, name)
            location_of[name] = location[i]
        elif type(named) is tuple:
            first, name = named
            if first is not own and first != own:
                name = f"q{len(location_of)}"
                places[place] = {first: named[1], own: name}
                location_of[name] = location[i]
        else:
            name = named.get(own)
            if name is None:
                name = named[own] = f"q{len(location_of)}"
                location_of[name] = location[i]
        state_of[i] = name

    aa.initial = state_of[0]
    transitions = aa.transitions
    parent, incoming, covered_by = nodes.parent, nodes.incoming, \
        nodes.covered_by
    # An expansion creates all of a node's children, so a stable sort by
    # parent (the root has none) visits each expanded node's children in
    # creation order, parents in id order.  Where merged states share a
    # statement, the first target in that order that is not FALSE wins.
    for child in sorted(range(1, len(status)), key=parent.__getitem__):
        src = state_of[parent[child]]
        if src is None:
            continue
        key = (src, incoming[child])
        if transitions.get(key, FALSE_STATE) == FALSE_STATE:
            target = child
            while status[target] == STATUS_COVERED:
                target = covered_by[target]
            transitions[key] = state_of[target] or FALSE_STATE
    if verdict == SAFE:
        # A completed exploration proved the untaken and deliberately cut
        # directions irrelevant to the spec: route them to TRUE so FALSE
        # is unreachable in the emitted automaton.
        for i in expanded:
            src = state_of[i]
            for edge in cfa.out_edges(location[i]):
                key = (src, edge.id)
                if transitions.get(key, FALSE_STATE) == FALSE_STATE:
                    transitions[key] = TRUE_STATE
    return aa
