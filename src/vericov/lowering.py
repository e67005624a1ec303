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
  carries the literal `!(cond)` expression.
* `int x;` without initializer lowers to `x = nondet()`: reading an
  uninitialized local may observe any integer.
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
from .lang import Assert, Assign, Decl, For, If, Return, Skip, While


class _Lowerer:
    def __init__(self) -> None:
        self.edges: List[Edge] = []
        self.nodes = [0, 1]  # entry, exit

    def fresh(self) -> int:
        """A new location; the edges and the node list share its int."""
        node = len(self.nodes)
        self.nodes.append(node)
        return node

    def edge(self, src: int, dst: int, kind: str, var: Optional[str],
             expr: Optional[lang.Expr], line: int) -> None:
        self.edges.append(Edge(src, dst, len(self.edges), kind, var, expr,
                               line))

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
            self.edge(src, dst, ASSIGN, stmt.name, stmt.expr, stmt.line)
        elif kind is Decl:
            init = stmt.init if stmt.init is not None else lang.NONDET_EXPR
            self.edge(src, dst, ASSIGN, stmt.name, init, stmt.line)
        elif kind is If:
            self.lower_if(stmt, src, dst)
        elif kind is While:
            self.lower_loop(stmt.cond, None, stmt.body, src, dst, stmt.line)
        elif kind is Skip:
            self.edge(src, dst, SKIP, None, None, stmt.line)
        elif kind is Assert:
            self.edge(src, dst, ASSERT, None, stmt.cond, stmt.line)
        elif kind is Return:
            self.edge(src, 1, HALT, None, None, stmt.line)
        elif kind is For:
            head = src
            if stmt.init is not None:
                head = self.fresh()
                self.lower_stmt(stmt.init, src, head)
            cond = stmt.cond if stmt.cond is not None else lang.ONE
            self.lower_loop(cond, stmt.update, stmt.body, head, dst, stmt.line)
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    def lower_guarded(self, cond: lang.Expr, body: List[lang.Stmt],
                      src: int, dst: int, line: int) -> None:
        """Assume the guard, then the block; a bare assume into `dst`
        when the block is empty."""
        if body:
            head = self.fresh()
            self.edge(src, head, ASSUME, None, cond, line)
            self.lower_block(body, head, dst)
        else:
            self.edge(src, dst, ASSUME, None, cond, line)

    def lower_if(self, stmt: If, src: int, dst: int) -> None:
        self.lower_guarded(stmt.cond, stmt.then, src, dst, stmt.line)
        self.lower_guarded(lang.negate(stmt.cond), stmt.orelse, src, dst,
                           stmt.line)

    def lower_loop(self, cond: lang.Expr, update: Optional[lang.Stmt],
                   body: List[lang.Stmt], head: int, dst: int, line: int) -> None:
        # Exit-side assume first: see module docstring.
        self.edge(head, dst, ASSUME, None, lang.negate(cond), line)
        back = self.fresh() if update is not None else head
        self.lower_guarded(cond, body, head, back, line)
        if update is not None:
            self.lower_stmt(update, back, head)


def lower(program: lang.Program) -> Cfa:
    """Build the CFA of a parsed program."""
    lw = _Lowerer()
    body = program.body
    if body and type(body[-1]) is Return:
        lw.lower_block(body, 0, 1)
    else:
        last_line = body[-1].line if body else 0
        if body:
            fall_off = lw.fresh()
            lw.lower_block(body, 0, fall_off)
        else:
            fall_off = 0
        lw.edge(fall_off, 1, HALT, None, None, last_line)
    cfa = Cfa(program.name, lw.nodes, lw.edges, entry=0, exit=1)
    cfa.validate()
    return cfa


def source_to_cfa(source: str, name: str = "main") -> Cfa:
    return lower(lang.parse_program(source, name=name))
