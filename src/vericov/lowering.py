"""Lowering from the AST to a control-flow automaton.

Conventions, all load-bearing for downstream determinism:

* Node 0 is entry, node 1 is exit; further locations are allocated in
  lowering order.  Entry may have incoming edges: a loop at the start of
  main has its head, and so the target of its back edge, at entry.
* Statement IDs are allocated in a pre-order walk of the AST.  Within a
  loop, the exit-side assume receives the lower ID, before the body-side
  assume; an `if` keeps source order (then-side assume first).  DFS
  traversals that follow ascending statement IDs therefore leave loops
  before diving into their bodies.
* Branch guards lower to a complementary assume pair; the negated side
  carries the literal `!(cond)` expression.  Each location is the source
  of one statement's lowering, so only assume edges branch: the
  explorer's counterexample budget relies on it (see `Cfa.validate`).
* The parser reads `int x;` without initializer as `x = nondet()`, and
  `while (c)` as `for (; c; )`, so each lowers as that statement does.
* `return` lowers to a single halt edge into exit; the returned value is
  unobservable (single function) and is discarded.  Only halt edges enter
  exit: the witness search relies on it (see `Cfa.validate`).  Statements after a
  `return` are still lowered — their locations are unreachable from entry
  and deliberately kept, so syntactically dead code deflates coverage.
* If control can fall off the end of main, an implicit halt edge with its
  own statement ID closes the automaton.
"""

from __future__ import annotations

from typing import List, Optional

from . import lang
from .cfa import ASSERT, ASSIGN, ASSUME, HALT, SKIP, Cfa, Edge
from .lang import Assert, Assign, For, If, Return, Skip


class _Lowerer:
    def __init__(self) -> None:
        self.edges: List[Edge] = []
        self.nodes = [0, 1]  # entry, exit

    def fresh(self) -> int:
        """A new location; the edges and the node list share its int."""
        node = len(self.nodes)
        self.nodes.append(node)
        return node

    def edge(self, src: int, dst: int, kind: str, var: Optional[str] = None,
             expr: Optional[lang.Expr] = None) -> None:
        self.edges.append(Edge(src, dst, len(self.edges), kind, var, expr))

    # Each statement is lowered between two given locations.  Returns
    # nothing; a Return ignores its target and jumps to exit instead.

    def lower_block(self, stmts: List[lang.Stmt], src: int, dst: int) -> None:
        if not stmts:
            raise AssertionError("empty block needs caller handling")
        current = src
        for stmt in stmts[:-1]:
            nxt = self.fresh()
            self.lower_stmt(stmt, current, nxt)
            current = nxt
        self.lower_stmt(stmts[-1], current, dst)

    def lower_stmt(self, stmt: lang.Stmt, src: int, dst: int) -> None:
        kind = type(stmt)
        if kind is Assign:
            self.edge(src, dst, ASSIGN, stmt.name, stmt.expr)
        elif kind is If:
            self.lower_guarded(stmt.cond, stmt.then, src, dst)
            self.lower_guarded(lang.negate(stmt.cond), stmt.orelse, src, dst)
        elif kind is For:
            self.lower_loop(stmt, src, dst)
        elif kind is Skip:
            self.edge(src, dst, SKIP)
        elif kind is Assert:
            self.edge(src, dst, ASSERT, expr=stmt.cond)
        elif kind is Return:
            self.edge(src, 1, HALT)
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    def lower_guarded(self, cond: lang.Expr, body: List[lang.Stmt],
                      src: int, dst: int) -> None:
        """Assume the guard, then the block; a bare assume into `dst`
        when the block is empty."""
        if body:
            head = self.fresh()
            self.edge(src, head, ASSUME, expr=cond)
            self.lower_block(body, head, dst)
        else:
            self.edge(src, dst, ASSUME, expr=cond)

    def lower_loop(self, stmt: For, src: int, dst: int) -> None:
        head = src
        if stmt.init is not None:
            head = self.fresh()
            self.lower_stmt(stmt.init, src, head)
        # Exit-side assume first: see module docstring.
        self.edge(head, dst, ASSUME, expr=lang.negate(stmt.cond))
        back = self.fresh() if stmt.update is not None else head
        self.lower_guarded(stmt.cond, stmt.body, head, back)
        if stmt.update is not None:
            self.lower_stmt(stmt.update, back, head)


def lower(program: lang.Program) -> Cfa:
    """Build the CFA of a parsed program."""
    lw = _Lowerer()
    body = program.body
    if body and type(body[-1]) is Return:
        lw.lower_block(body, 0, 1)
    else:
        fall_off = 0
        if body:
            fall_off = lw.fresh()
            lw.lower_block(body, 0, fall_off)
        lw.edge(fall_off, 1, HALT)
    cfa = Cfa(program.name, lw.nodes, lw.edges, entry=0, exit=1)
    cfa.validate()
    return cfa


def source_to_cfa(source: str, name: str = "main") -> Cfa:
    return lower(lang.parse_program(source, name=name))
