"""Control-flow automaton: program locations connected by statement edges.

Statements are the unit of coverage.  Every statement has a dense integer
ID unique within its automaton; the IDs double as the alphabet of the
assumption automata built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from . import lang

ASSIGN = "assign"
ASSUME = "assume"
ASSERT = "assert"
SKIP = "skip"
HALT = "halt"


@dataclass(frozen=True)
class Statement:
    """A labeled CFA edge payload.

    kind is one of assign/assume/assert/skip/halt; `var` is set for
    assigns, `expr` for assign/assume/assert.
    """

    id: int
    kind: str
    var: Optional[str] = None
    expr: Optional[lang.Expr] = None
    source_line: int = 0

    def text(self) -> str:
        if self.kind == ASSIGN:
            return f"{self.var} = {lang.expr_to_text(self.expr)}"
        if self.kind in (ASSUME, ASSERT):
            return lang.expr_to_text(self.expr)
        return ""


@dataclass(frozen=True)
class Edge:
    src: int
    stmt: Statement
    dst: int


@dataclass
class Cfa:
    name: str
    nodes: List[int]
    edges: List[Edge]
    entry: int
    exit: int
    _out: Dict[int, List[Edge]] = field(default_factory=dict, repr=False)

    def out_edges(self, node: int) -> List[Edge]:
        """Outgoing edges ordered by statement ID."""
        if not self._out:
            for n in self.nodes:
                self._out[n] = []
            for e in self.edges:
                self._out[e.src].append(e)
            for n in self.nodes:
                self._out[n].sort(key=lambda e: e.stmt.id)
        return self._out[node]

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        ids = sorted(e.stmt.id for e in self.edges)
        if ids != list(range(len(self.edges))):
            raise ValueError("statement ids are not dense from 0")
        for e in self.edges:
            if e.src not in node_set or e.dst not in node_set:
                raise ValueError("edge endpoint outside node set")
            if e.src == self.exit:
                raise ValueError("exit node has an outgoing edge")
            if e.dst == self.entry:
                raise ValueError("entry node has an incoming edge")


def statements(cfa: Cfa) -> List[Statement]:
    """All statements of the automaton, ordered by ID."""
    return sorted((e.stmt for e in cfa.edges), key=lambda s: s.id)


def statement_ids(cfa: Cfa) -> Set[int]:
    return {e.stmt.id for e in cfa.edges}


def postorder_index(cfa: Cfa) -> Dict[int, int]:
    """DFS finish-time index of every node; lower means closer to exit.

    The DFS starts at entry and visits out-edges in ascending statement-ID
    order, so the indexing is deterministic.  Nodes unreachable from entry
    (code after `return`) are traversed afterwards by further DFS rounds in
    ascending node order, and thus never rank below any exit-reaching node.
    """
    index: Dict[int, int] = {}
    visited: Set[int] = set()
    counter = 0

    def dfs(root: int) -> None:
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


def stmt_reads(stmt: Statement) -> Set[str]:
    if stmt.expr is None:
        return set()
    return lang.expr_variables(stmt.expr)


def stmt_writes(stmt: Statement) -> Set[str]:
    return {stmt.var} if stmt.kind == ASSIGN else set()


def live_variables(cfa: Cfa) -> Dict[int, frozenset]:
    """Per-node may-live variable sets (read on some path before written).

    Backward worklist fixpoint over the edge relation.
    """
    live: Dict[int, Set[str]] = {n: set() for n in cfa.nodes}
    preds: Dict[int, List[Edge]] = {n: [] for n in cfa.nodes}
    for e in cfa.edges:
        preds[e.dst].append(e)
    worklist = list(cfa.nodes)
    while worklist:
        node = worklist.pop()
        for e in preds[node]:
            flow = stmt_reads(e.stmt) | (live[node] - stmt_writes(e.stmt))
            if not flow <= live[e.src]:
                live[e.src] |= flow
                worklist.append(e.src)
    return {n: frozenset(s) for n, s in live.items()}


def dump_cfa(cfa: Cfa) -> str:
    """Stable text listing: entry/exit header, then one line per edge.

    Edges are ordered by (source node, statement ID); statement text is the
    rendered expression, omitted for skip/halt.
    """
    lines = [f"entry L{cfa.entry}", f"exit L{cfa.exit}"]
    for e in sorted(cfa.edges, key=lambda e: (e.src, e.stmt.id)):
        text = e.stmt.text()
        label = f"{e.stmt.id}:{e.stmt.kind}" + (f" {text}" if text else "")
        lines.append(f"L{e.src} -[{label}]-> L{e.dst}")
    return "\n".join(lines) + "\n"
