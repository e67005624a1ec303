"""The benchmark's own model of the programs it generates.

vericov only ever sees the rendered source text.  The benchmark keeps the
program as a small AST of its own, numbers the statements by the lowering
rules the vericov README and `lowering.py` document, and runs the program
with its own interpreter.  Every expected answer the checks compare against
comes from here, never from vericov's output.

Expressions are tuples:

    ("n", value)            integer literal
    ("v", name)             variable
    ("nd",)                 nondet()
    ("b", op, lhs, rhs)     binary operator
    ("raw", text)           source text the model never evaluates

Statements are `Decl`, `Assign`, `If`, `While`, `Assert` and `Return`.
Lowering assigns statement ids in a pre-order walk:

* declarations, assignments and asserts take one id each;
* `if` takes its then-assume id, then the then-block's ids, then its
  else-assume id, then the else-block's ids;
* `while` takes its exit-assume id first, then its body-assume id, then the
  body's ids;
* `return` takes one id (a halt edge into exit), and a body that can fall
  off its end gets one more implicit halt id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence


@dataclass
class Decl:
    name: str
    expr: tuple
    sid: int = -1


@dataclass
class Assign:
    name: str
    expr: tuple
    sid: int = -1


@dataclass
class Assert:
    cond: tuple
    sid: int = -1


@dataclass
class Return:
    sid: int = -1


@dataclass
class If:
    cond: tuple
    then: List
    orelse: List = field(default_factory=list)
    then_sid: int = -1
    else_sid: int = -1
    # Which sides some execution can take; the generator knows.
    then_feasible: bool = True
    else_feasible: bool = True


@dataclass
class While:
    cond: tuple
    body: List
    exit_sid: int = -1
    body_sid: int = -1


@dataclass
class Program:
    name: str
    body: List
    statement_count: int = 0
    halt_sid: int = -1  # implicit halt when the body can fall off its end

    def number(self) -> "Program":
        """Assign statement ids by the lowering rules; returns self."""
        counter = [0]

        def take() -> int:
            counter[0] += 1
            return counter[0] - 1

        def block(stmts: Sequence) -> None:
            for stmt in stmts:
                if isinstance(stmt, If):
                    stmt.then_sid = take()
                    block(stmt.then)
                    stmt.else_sid = take()
                    block(stmt.orelse)
                elif isinstance(stmt, While):
                    stmt.exit_sid = take()
                    stmt.body_sid = take()
                    block(stmt.body)
                else:
                    stmt.sid = take()

        block(self.body)
        if not (self.body and isinstance(self.body[-1], Return)):
            self.halt_sid = take()
        self.statement_count = counter[0]
        return self


# ---------------------------------------------------------------------------
# Source rendering
# ---------------------------------------------------------------------------


def render_expr(e: tuple, top: bool = True) -> str:
    """Source text; every nested binary operation is parenthesized."""
    tag = e[0]
    if tag == "n":
        return str(e[1]) if e[1] >= 0 else f"({e[1]})"
    if tag == "v":
        return e[1]
    if tag == "nd":
        return "nondet()"
    if tag == "b":
        text = f"{render_expr(e[2], False)} {e[1]} {render_expr(e[3], False)}"
        return text if top else f"({text})"
    if tag == "raw":
        return e[1]
    raise ValueError(f"unknown expression {e!r}")


def render(program: Program) -> str:
    lines = ["int nondet();", "", "int main() {"]

    def block(stmts: Sequence, indent: str) -> None:
        for stmt in stmts:
            if isinstance(stmt, Decl):
                lines.append(f"{indent}int {stmt.name} = "
                             f"{render_expr(stmt.expr)};")
            elif isinstance(stmt, Assign):
                lines.append(f"{indent}{stmt.name} = "
                             f"{render_expr(stmt.expr)};")
            elif isinstance(stmt, Assert):
                lines.append(f"{indent}assert({render_expr(stmt.cond)});")
            elif isinstance(stmt, Return):
                lines.append(f"{indent}return 0;")
            elif isinstance(stmt, If):
                lines.append(f"{indent}if ({render_expr(stmt.cond)}) {{")
                block(stmt.then, indent + "  ")
                if stmt.orelse:
                    lines.append(f"{indent}}} else {{")
                    block(stmt.orelse, indent + "  ")
                lines.append(f"{indent}}}")
            elif isinstance(stmt, While):
                lines.append(f"{indent}while ({render_expr(stmt.cond)}) {{")
                block(stmt.body, indent + "  ")
                lines.append(f"{indent}}}")
            else:
                raise ValueError(f"unknown statement {stmt!r}")

    block(program.body, "  ")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


class Violation(Exception):
    """An assert failed during interpretation."""


_BINARY: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
}


def evaluate(e: tuple, env: Dict[str, int],
             next_nondet: Callable[[], int]) -> int:
    """C semantics over Python integers, nondet() left to right.

    Generated programs use no division and no short-circuit operators.
    """
    tag = e[0]
    if tag == "n":
        return e[1]
    if tag == "v":
        return env[e[1]]
    if tag == "nd":
        return next_nondet()
    if tag == "b":
        a = evaluate(e[2], env, next_nondet)
        b = evaluate(e[3], env, next_nondet)
        return _BINARY[e[1]](a, b)
    raise ValueError(f"cannot evaluate {e!r}")


class _Halt(Exception):
    pass


def run(program: Program, nondet_values: Sequence[int],
        decide: Optional[Callable[[If], bool]] = None) -> Iterator[int]:
    """Yield the statement ids one execution takes, in order.

    `nondet_values` feed the nondet() occurrences in evaluation order; the
    run raises IndexError if it needs more.  With `decide`, each `if` takes
    the side `decide` names instead of evaluating its guard (nondet values
    are then not consumed by guards).  A failing assert raises Violation
    after its id has been yielded.
    """
    env: Dict[str, int] = {}
    values = iter(nondet_values)

    def next_nondet() -> int:
        try:
            return next(values)
        except StopIteration:
            raise IndexError("execution needs more nondet values") from None

    def block(stmts: Sequence) -> Iterator[int]:
        for stmt in stmts:
            if isinstance(stmt, (Decl, Assign)):
                env[stmt.name] = evaluate(stmt.expr, env, next_nondet)
                yield stmt.sid
            elif isinstance(stmt, Assert):
                holds = evaluate(stmt.cond, env, next_nondet) != 0
                yield stmt.sid
                if not holds:
                    raise Violation(stmt.sid)
            elif isinstance(stmt, Return):
                yield stmt.sid
                raise _Halt
            elif isinstance(stmt, If):
                if decide is not None:
                    taken = decide(stmt)
                else:
                    taken = evaluate(stmt.cond, env, next_nondet) != 0
                if taken:
                    yield stmt.then_sid
                    yield from block(stmt.then)
                else:
                    yield stmt.else_sid
                    yield from block(stmt.orelse)
            elif isinstance(stmt, While):
                while evaluate(stmt.cond, env, next_nondet) != 0:
                    yield stmt.body_sid
                    yield from block(stmt.body)
                yield stmt.exit_sid

    try:
        yield from block(program.body)
    except _Halt:
        return
    yield program.halt_sid
