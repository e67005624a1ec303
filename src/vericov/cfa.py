"""Control-flow automaton: program locations connected by statement edges.

Statements are the unit of coverage.  Each statement labels exactly one
edge, and one `Edge` record carries both, so the edge list is the
statement table.  Every statement has a dense integer ID unique within its
automaton, its index in that list; the IDs double as the alphabet of the
assumption automata built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Set

from . import lang

ASSIGN = "assign"
ASSUME = "assume"
ASSERT = "assert"
SKIP = "skip"
HALT = "halt"


@dataclass(slots=True)
class Edge:
    """Statement `id` leads from node `src` to node `dst`.

    kind is one of assign/assume/assert/skip/halt; `var` is set for
    assigns, `expr` for assign/assume/assert.

    Slotted, so a record holds no per-instance dict.  Lowering builds each
    edge once and nothing mutates it afterwards; it compares by value but
    is not hashable.
    """

    src: int
    dst: int
    id: int
    kind: str
    var: Optional[str] = None
    expr: Optional[lang.Expr] = None

    def text(self) -> str:
        if self.kind == ASSIGN:
            return f"{self.var} = {lang.expr_to_text(self.expr)}"
        if self.kind in (ASSUME, ASSERT):
            return lang.expr_to_text(self.expr)
        return ""


@dataclass(frozen=True)
class Numbering:
    """The variables of a CFA numbered in statement-ID order of first
    appearance (within a statement in text order), and each statement's
    reads and write as masks: bit `index[name]` stands for the variable.
    `reads` and `writes` map statement IDs to masks."""

    index: Dict[str, int]
    reads: Dict[int, int]
    writes: Dict[int, int]


@dataclass
class Cfa:
    """`edges[i]` carries statement i, so the edge list is the statement
    table."""

    name: str
    nodes: List[int]
    edges: List[Edge]
    entry: int
    exit: int

    def __post_init__(self) -> None:
        # Caches, worked out on first use.  They are not fields, so
        # equality, the constructor and `fields(Cfa)` ignore them.
        self._out: Optional[Dict[int, List[Edge]]] = None
        self._numbering: Optional[Numbering] = None
        self._live: Optional[Dict[int, int]] = None
        self._postorder: Optional[Dict[int, int]] = None

    def out_edges(self, node: int) -> List[Edge]:
        """Outgoing edges ordered by statement ID."""
        if self._out is None:
            self._out = {n: [] for n in self.nodes}
            for e in self.edges:
                self._out[e.src].append(e)
        return self._out[node]

    def edge(self, stmt_id: int) -> Edge:
        """The edge carrying a statement; ValueError for an unknown ID."""
        if not 0 <= stmt_id < len(self.edges):
            raise ValueError(f"no statement with id {stmt_id}")
        return self.edges[stmt_id]

    def numbering(self) -> Numbering:
        """The variable numbering, worked out on first use: one pass over
        the statements and the operands of their code.  Each variable gets
        its bit once, in a name -> bit table, and a statement's read mask
        ORs the bits of its `VAR` operands."""
        if self._numbering is None:
            bits: Dict[str, int] = {}
            reads: Dict[int, int] = {}
            writes: Dict[int, int] = {}
            for e in self.edges:
                write = 0
                if e.kind == ASSIGN:
                    write = bits.get(e.var, 0)
                    if not write:
                        write = bits[e.var] = 1 << len(bits)
                mask = 0
                if e.expr is not None:
                    for op, name in e.expr:
                        if op is lang.VAR:
                            bit = bits.get(name, 0)
                            if not bit:
                                bit = bits[name] = 1 << len(bits)
                            mask |= bit
                reads[e.id] = mask
                writes[e.id] = write
            self._numbering = Numbering(dict(zip(bits, range(len(bits)))),
                                        reads, writes)
        return self._numbering

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation.
        `explore` calls it on every CFA it starts on.

        Only assume edges branch: a location with an out edge of another
        kind has no other out edge.  So expanding a node reaches at most
        one exit node or failing assert, and records at most one execution
        or counterexample, and the explorer checks its counterexample
        budget once before each expansion.  Any kind of edge may enter
        exit."""
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for role, node in (("entry", self.entry), ("exit", self.exit)):
            if node not in node_set:
                raise ValueError(f"{role} node {node} outside node set")
        first: Dict[int, Edge] = {}  # location -> its first out edge
        for i, e in enumerate(self.edges):
            if e.id != i:
                raise ValueError(f"edge {i} carries statement {e.id}")
            if e.src not in node_set or e.dst not in node_set:
                raise ValueError("edge endpoint outside node set")
            if e.src == self.exit:
                raise ValueError("exit node has an outgoing edge")
            other = first.setdefault(e.src, e)
            if other is not e and (e.kind != ASSUME or other.kind != ASSUME):
                raise ValueError(f"statements {other.id} and {i} leave one"
                                 " location, and only assumes branch")


def statement_ids(cfa: Cfa) -> Set[int]:
    return {e.id for e in cfa.edges}


def postorder_index(cfa: Cfa) -> Dict[int, int]:
    """DFS finish-time index of every node; lower means closer to exit.

    The DFS starts at entry and visits out-edges in ascending statement-ID
    order, so the indexing is deterministic.  Nodes unreachable from entry
    (code after `return`) are traversed afterwards by further DFS rounds in
    ascending node order, and thus never rank below any exit-reaching node.
    Worked out once per CFA and kept on it, like `live_variables`: one DFS
    over the out-edge table, linear in the nodes and edges.  `explore`
    asks for it at its first fork under a strategy other than bfs, where
    it orders the children, so an exploration that never forks, or runs
    breadth-first, never pays for it.
    """
    if cfa._postorder is None:
        cfa._postorder = _postorder_dfs(cfa)
    return cfa._postorder


def _postorder_dfs(cfa: Cfa) -> Dict[int, int]:
    """Iterative DFS over `cfa.out_edges`, the table `expand` reads too.

    Each stacked node keeps its out-edge list and the position of the next
    edge to try on parallel stacks, so no edge is looked at twice.  An
    iterator per stacked node would do the same, but each would be an
    object the garbage collector tracks for as long as the DFS runs: on a
    600-block program thousands of them reached the oldest generation and
    brought its next full collection forward, into whatever command ran
    next."""
    out_edges = cfa.out_edges
    index: Dict[int, int] = {}
    visited: Set[int] = set()

    def dfs(root: int) -> None:
        visited.add(root)
        stack, outs, nexts = [root], [out_edges(root)], [0]
        while stack:
            out, i = outs[-1], nexts[-1]
            while i < len(out) and out[i].dst in visited:
                i += 1
            if i < len(out):
                nexts[-1] = i + 1
                node = out[i].dst
                visited.add(node)
                stack.append(node)
                outs.append(out_edges(node))
                nexts.append(0)
            else:
                outs.pop()
                nexts.pop()
                index[stack.pop()] = len(index)

    dfs(cfa.entry)
    for node in sorted(cfa.nodes):
        if node not in visited:
            dfs(node)
    return index


def live_variables(cfa: Cfa) -> Dict[int, int]:
    """Per-node may-live variables (read on some path before written), as
    masks over `cfa.numbering()`.

    Worked out once per CFA and kept on it; every later call returns the
    same mapping.  A bit-vector worklist: each edge evaluation ORs masks
    as wide as the variable count, and a node is evaluated again only when
    the live set of one of its successors grew.
    """
    if cfa._live is None:
        cfa._live = _live_fixpoint(cfa)
    return cfa._live


def _live_fixpoint(cfa: Cfa) -> Dict[int, int]:
    """Backward bit-vector worklist over the edge relation (Kildall 1973).

    Each node's in-edges are listed once, by statement ID, beside a table
    of their sources; an edge's read and write masks come from the
    numbering.  A `(src, read, write)` tuple per edge was slower, and each
    tuple was one more object for the garbage collector to count.  A node
    waits on the worklist at most once.  An edge evaluation clears the
    written bit only when that bit is live."""
    numbering = cfa.numbering()
    reads, writes = numbering.reads, numbering.writes
    live = {n: 0 for n in cfa.nodes}
    preds: Dict[int, List[int]] = {n: [] for n in cfa.nodes}
    srcs: List[int] = []
    for e in cfa.edges:
        preds[e.dst].append(e.id)
        srcs.append(e.src)
    worklist = list(cfa.nodes)
    waiting = set(worklist)
    while worklist:
        node = worklist.pop()
        waiting.discard(node)
        live_here = live[node]
        for sid in preds[node]:
            src, read, write = srcs[sid], reads[sid], writes[sid]
            flow = live_here ^ write if live_here & write else live_here
            old = live[src]
            new = old | flow | read
            if new != old:
                live[src] = new
                if src not in waiting:
                    waiting.add(src)
                    worklist.append(src)
    return live


def dump_cfa(cfa: Cfa) -> str:
    """Stable text listing: entry/exit header, then one line per edge.

    Edges are ordered by (source node, statement ID): `edges` is in
    statement-ID order, so a stable sort by source node suffices.  Each
    label is the kind, then `Edge.text` unless it is empty (skip and halt
    show their kind alone).
    """
    lines = [f"entry L{cfa.entry}", f"exit L{cfa.exit}"]
    for e in sorted(cfa.edges, key=attrgetter("src")):
        text = e.text()
        lines.append(f"L{e.src} -[{e.id}:{e.kind} {text}]-> L{e.dst}" if text
                     else f"L{e.src} -[{e.id}:{e.kind}]-> L{e.dst}")
    return "\n".join(lines) + "\n"
