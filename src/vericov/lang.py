"""Frontend for a small C-like imperative language.

The accepted language is a single ``int main()`` over mathematical
(arbitrary-precision) integers.  Grammar, in rough EBNF:

    program   := prologue "int" "main" "(" ")" block
    prologue  := ( "#" ...end-of-line | "int" ID "(" ")" ";" )*
    block     := "{" stmt* "}"
    stmt      := "int" ID [ "=" expr ] ";"
               | ID "=" expr ";"  |  ID "++" ";"  |  ID "--" ";"
               | "if" "(" expr ")" block [ "else" block ]
               | "while" "(" expr ")" loop_body
               | "for" "(" [simple] ";" [expr] ";" [simple] ")" loop_body
               | "assert" "(" expr ")" ";"
               | "return" [ expr ] ";"
               | ";"
    loop_body := block | ";"
    simple    := "int" ID "=" expr | ID "=" expr | ID "++" | ID "--"
    expr      := C precedence over: integer literals, `true`/`false` (1/0),
                 variables, `nondet()`, unary `!` `-`, `* / %`, `+ -`,
                 `< <= > >=`, `== !=`, `&&`, `||`

Deliberate accommodations, all documented here because this file is the
authoritative description of the language:

* `#`-directive lines and forward declarations such as ``int nondet();``
  are accepted and ignored.
* ``true`` / ``false`` are literals 1 / 0, so sources that `#define` them
  keep their meaning after the directive is dropped.
* An assignment in a `for` initializer implicitly declares its variable
  (old-C loop idiom).  A statement-level assignment to an undeclared name
  is still an error.
* `ID++` / `ID--` are sugar for `ID = ID + 1` / `ID = ID - 1`.
* Loop bodies may be a block or a single `;`.  `if`/`else` bodies must be
  blocks.

Scoping: declare-before-use, block scoped; redeclaration in the same scope
and shadowing of an outer variable are both rejected (the analyses key
program states by variable name).

`/` and `%` follow C99: truncation toward zero, remainder takes the sign
of the dividend.  Division by zero has no defined value; `concrete_eval`
raises :class:`EvalError` and callers treat the enclosing witness as
infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union


class ParseError(Exception):
    """Lexical or syntactic error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UndeclaredVariable(Exception):
    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: undeclared variable '{name}'")
        self.name = name
        self.line = line


class EvalError(Exception):
    """Raised when concrete evaluation has no defined result."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Nondet:
    """A `nondet()` call: an arbitrary integer chosen at this occurrence."""


@dataclass(frozen=True)
class Unary:
    op: str  # "!" or "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[IntLit, Var, Nondet, Unary, Binary]


@dataclass
class Decl:
    name: str
    init: Optional[Expr]
    line: int


@dataclass
class Assign:
    name: str
    expr: Expr
    line: int


@dataclass
class If:
    cond: Expr
    then: List["Stmt"]
    orelse: List["Stmt"]
    line: int


@dataclass
class While:
    cond: Expr
    body: List["Stmt"]
    line: int


@dataclass
class For:
    init: Optional["Stmt"]  # Decl or Assign
    cond: Optional[Expr]
    update: Optional["Stmt"]  # Assign
    body: List["Stmt"]
    line: int
    implicit_decls: List[str] = field(default_factory=list)


@dataclass
class Assert:
    cond: Expr
    line: int


@dataclass
class Return:
    expr: Optional[Expr]
    line: int


@dataclass
class Skip:
    line: int


Stmt = Union[Decl, Assign, If, While, For, Assert, Return, Skip]


@dataclass
class Program:
    body: List[Stmt]
    name: str = "main"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {"int", "main", "if", "else", "while", "for", "assert", "return",
            "true", "false"}

# Longest symbols first so the lexer never splits a two-char operator.
SYMBOLS = ["&&", "||", "==", "!=", "<=", ">=", "++", "--",
           "{", "}", "(", ")", ";", "=", "<", ">", "+", "-", "*", "/", "%", "!"]


@dataclass
class Token:
    kind: str  # "int", "ident", "kw", "sym", "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            # Preprocessor-style directive: skip to end of line.
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated comment", line, col)
            for ch in source[i:end + 2]:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue
        if c in "0123456789":
            start = i
            startcol = col
            while i < n and source[i] in "0123456789":
                i += 1
                col += 1
            tokens.append(Token("int", source[start:i], line, startcol))
            continue
        if c.isalpha() or c == "_":
            start = i
            startcol = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            text = source[start:i]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, startcol))
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binary operator precedence, higher binds tighter.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
UNARY_PRECEDENCE = 7


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def accept(self, text: str) -> Optional[Token]:
        tok = self.peek()
        if tok.text == text and tok.kind in ("sym", "kw"):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            raise self.error(f"expected '{text}', found '{self.peek().text or 'end of input'}'")
        return tok

    # -- program structure --------------------------------------------------

    def parse_program(self) -> Program:
        self.skip_prologue()
        self.expect("int")
        self.expect("main")
        self.expect("(")
        self.expect(")")
        body = self.parse_block()
        if self.peek().kind != "eof":
            raise self.error("trailing input after main")
        return Program(body)

    def skip_prologue(self) -> None:
        # Forward declarations, e.g. `int nondet();`, before main.
        while (self.peek().text == "int" and self.peek(1).kind == "ident"
               and self.peek(2).text == "(" and self.peek(3).text == ")"
               and self.peek(4).text == ";"):
            for _ in range(5):
                self.advance()

    def parse_block(self) -> List[Stmt]:
        self.expect("{")
        stmts: List[Stmt] = []
        while not self.accept("}"):
            if self.peek().kind == "eof":
                raise self.error("unterminated block")
            stmts.append(self.parse_stmt())
        return stmts

    def parse_loop_body(self) -> List[Stmt]:
        tok = self.peek()
        if tok.text == ";":
            self.advance()
            return [Skip(tok.line)]
        return self.parse_block()

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text == ";":
            self.advance()
            return Skip(tok.line)
        if tok.text == "int":
            stmt = self.parse_decl()
            self.expect(";")
            return stmt
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "assert":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Assert(cond, tok.line)
        if tok.text == "return":
            self.advance()
            expr = None
            if self.peek().text != ";":
                expr = self.parse_expr()
            self.expect(";")
            return Return(expr, tok.line)
        if tok.kind == "ident":
            stmt = self.parse_assign_like()
            self.expect(";")
            return stmt
        raise self.error(f"expected statement, found '{tok.text or 'end of input'}'")

    def parse_decl(self) -> Decl:
        tok = self.expect("int")
        name = self.expect_ident()
        init = None
        if self.accept("="):
            init = self.parse_expr()
        return Decl(name.text, init, tok.line)

    def parse_assign_like(self) -> Assign:
        name = self.expect_ident()
        if self.accept("++"):
            return Assign(name.text, Binary("+", Var(name.text), IntLit(1)), name.line)
        if self.accept("--"):
            return Assign(name.text, Binary("-", Var(name.text), IntLit(1)), name.line)
        self.expect("=")
        return Assign(name.text, self.parse_expr(), name.line)

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected identifier, found '{tok.text or 'end of input'}'")
        return self.advance()

    def parse_if(self) -> If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block()
        orelse: List[Stmt] = []
        if self.accept("else"):
            orelse = self.parse_block()
        return If(cond, then, orelse, tok.line)

    def parse_while(self) -> While:
        tok = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_loop_body()
        return While(cond, body, tok.line)

    def parse_for(self) -> For:
        tok = self.expect("for")
        self.expect("(")
        init: Optional[Stmt] = None
        if self.peek().text != ";":
            init = self.parse_decl() if self.peek().text == "int" else self.parse_assign_like()
        self.expect(";")
        cond = None
        if self.peek().text != ";":
            cond = self.parse_expr()
        self.expect(";")
        update: Optional[Stmt] = None
        if self.peek().text != ")":
            update = self.parse_assign_like()
        self.expect(")")
        body = self.parse_loop_body()
        return For(init, cond, update, body, tok.line)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            prec = PRECEDENCE.get(tok.text) if tok.kind == "sym" else None
            if prec is None or prec < min_prec:
                return lhs
            self.advance()
            rhs = self.parse_expr(prec + 1)
            lhs = Binary(tok.text, lhs, rhs)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text in ("!", "-") and tok.kind == "sym":
            self.advance()
            return Unary(tok.text, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.text == "true":
            self.advance()
            return IntLit(1)
        if tok.text == "false":
            self.advance()
            return IntLit(0)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "nondet" and self.accept("("):
                self.expect(")")
                return Nondet()
            return Var(tok.text)
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error(f"expected expression, found '{tok.text or 'end of input'}'")


# ---------------------------------------------------------------------------
# Scope checking
# ---------------------------------------------------------------------------


class _Scopes:
    def __init__(self) -> None:
        self.stack: List[set] = [set()]

    def push(self) -> None:
        self.stack.append(set())

    def pop(self) -> None:
        self.stack.pop()

    def declared(self, name: str) -> bool:
        return any(name in scope for scope in self.stack)

    def declare(self, name: str, line: int) -> None:
        if self.declared(name):
            raise ParseError(f"redeclaration of '{name}'", line, 1)
        self.stack[-1].add(name)


def _check_expr(expr: Expr, scopes: _Scopes, line: int) -> None:
    if isinstance(expr, Var):
        if not scopes.declared(expr.name):
            raise UndeclaredVariable(expr.name, line)
    elif isinstance(expr, Unary):
        _check_expr(expr.operand, scopes, line)
    elif isinstance(expr, Binary):
        _check_expr(expr.lhs, scopes, line)
        _check_expr(expr.rhs, scopes, line)


def _check_block(stmts: List[Stmt], scopes: _Scopes) -> None:
    for stmt in stmts:
        _check_stmt(stmt, scopes)


def _check_stmt(stmt: Stmt, scopes: _Scopes) -> None:
    if isinstance(stmt, Decl):
        if stmt.init is not None:
            _check_expr(stmt.init, scopes, stmt.line)
        scopes.declare(stmt.name, stmt.line)
    elif isinstance(stmt, Assign):
        if not scopes.declared(stmt.name):
            raise UndeclaredVariable(stmt.name, stmt.line)
        _check_expr(stmt.expr, scopes, stmt.line)
    elif isinstance(stmt, If):
        _check_expr(stmt.cond, scopes, stmt.line)
        scopes.push()
        _check_block(stmt.then, scopes)
        scopes.pop()
        scopes.push()
        _check_block(stmt.orelse, scopes)
        scopes.pop()
    elif isinstance(stmt, While):
        _check_expr(stmt.cond, scopes, stmt.line)
        scopes.push()
        _check_block(stmt.body, scopes)
        scopes.pop()
    elif isinstance(stmt, For):
        scopes.push()
        if isinstance(stmt.init, Decl):
            _check_stmt(stmt.init, scopes)
        elif isinstance(stmt.init, Assign):
            # A for-initializer assignment to an undeclared name declares it.
            _check_expr(stmt.init.expr, scopes, stmt.init.line)
            if not scopes.declared(stmt.init.name):
                scopes.declare(stmt.init.name, stmt.init.line)
                stmt.implicit_decls.append(stmt.init.name)
        if stmt.cond is not None:
            _check_expr(stmt.cond, scopes, stmt.line)
        if stmt.update is not None:
            _check_stmt(stmt.update, scopes)
        scopes.push()
        _check_block(stmt.body, scopes)
        scopes.pop()
        scopes.pop()
    elif isinstance(stmt, Assert):
        _check_expr(stmt.cond, scopes, stmt.line)
    elif isinstance(stmt, Return):
        if stmt.expr is not None:
            _check_expr(stmt.expr, scopes, stmt.line)


def parse_program(source: str, name: str = "main") -> Program:
    """Parse and scope-check a source text.

    Raises ParseError or UndeclaredVariable on ill-formed input.
    """
    program = _Parser(tokenize(source)).parse_program()
    program.name = name
    _check_block(program.body, _Scopes())
    return program


# ---------------------------------------------------------------------------
# Expression rendering
# ---------------------------------------------------------------------------


def expr_to_text(expr: Expr) -> str:
    """Deterministic source-like rendering, minimal parentheses."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Nondet):
        return "nondet()"
    if isinstance(expr, Unary):
        if isinstance(expr.operand, Binary):
            return f"{expr.op}({_render(expr.operand, 0)})"
        return f"{expr.op}{_render(expr.operand, UNARY_PRECEDENCE)}"
    prec = PRECEDENCE[expr.op]
    lhs = _render(expr.lhs, prec)
    rhs = _render(expr.rhs, prec + 1)
    text = f"{lhs} {expr.op} {rhs}"
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Concrete evaluation
# ---------------------------------------------------------------------------


def c_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def c_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    return a - c_div(a, b) * b


def concrete_eval(expr: Expr, env: dict, next_nondet: Callable[[], int]) -> int:
    """Evaluate under a concrete environment.

    `next_nondet` supplies the value of each nondet() occurrence, in
    left-to-right evaluation order.  `&&`/`||` short-circuit, so an
    unreached operand consumes no nondet occurrences.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Nondet):
        return next_nondet()
    if isinstance(expr, Unary):
        v = concrete_eval(expr.operand, env, next_nondet)
        return (0 if v else 1) if expr.op == "!" else -v
    op = expr.op
    if op == "&&":
        if concrete_eval(expr.lhs, env, next_nondet) == 0:
            return 0
        return 0 if concrete_eval(expr.rhs, env, next_nondet) == 0 else 1
    if op == "||":
        if concrete_eval(expr.lhs, env, next_nondet) != 0:
            return 1
        return 0 if concrete_eval(expr.rhs, env, next_nondet) == 0 else 1
    return apply_binary(op, concrete_eval(expr.lhs, env, next_nondet),
                        concrete_eval(expr.rhs, env, next_nondet))


def apply_binary(op: str, a: int, b: int) -> int:
    """Apply a binary operator to two evaluated operands.

    `&&`/`||` give the value of their short-circuit form; the caller
    decides whether the right operand is evaluated at all.
    """
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return c_div(a, b)
    if op == "%":
        return c_mod(a, b)
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == ">=":
        return 1 if a >= b else 0
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "&&":
        return 1 if a != 0 and b != 0 else 0
    if op == "||":
        return 1 if a != 0 or b != 0 else 0
    raise AssertionError(f"unknown operator {op}")


def expr_variables(expr: Expr, into: Optional[dict] = None) -> dict:
    """Names of all variables occurring in the expression, as the keys of
    a dict in left-to-right order of first occurrence."""
    out = into if into is not None else {}
    if isinstance(expr, Var):
        out.setdefault(expr.name)
    elif isinstance(expr, Unary):
        expr_variables(expr.operand, out)
    elif isinstance(expr, Binary):
        expr_variables(expr.lhs, out)
        expr_variables(expr.rhs, out)
    return out
