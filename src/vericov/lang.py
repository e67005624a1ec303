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
* Blocks nest at most `MAX_BLOCK_DEPTH` (127) levels deep, the body of
  main being level 1: the minimum C11 §5.2.4.1 requires a compiler to
  support.  Deeper nesting is a ParseError.  Expressions have no depth
  limit.

Scoping: declare-before-use, block scoped; redeclaration in the same scope
and shadowing of an outer variable are both rejected (the analyses key
program states by variable name).  The parser checks scopes as it reads
the text, in one pass, so among several errors the first one the parser
reaches is reported; a lexical error anywhere is reported before all
others, the first in the text if there are several.  A scope error names
the line of its statement.

The lexer makes at most two passes over the text, neither of which moves
a line or a column: the first blanks the comments, and is skipped when
the text holds no `#` and no `/`, where no comment can start; the second
reads the whole text, its trailing blanks stripped, with one
regular-expression `findall` whose alternatives try the commonest token
classes first.  Its result is the list of token texts and a table of the
kind of each distinct text; the parser reads these and keeps the position
of a token, its index in the list.  Where a token starts in the text, and
so its line and column, is worked out only for an error message, by
scanning the text once more.

The parser builds six statement records, and keeps in them only what
lowering reads: `Assign`, `If`, `For`, `Assert`, `Return` and `Skip`.
``int x = e;`` is read as the `Assign` of `e`, and ``int x;`` as that of
`nondet()`: reading an uninitialized local may observe any integer.
``while (c) s`` is read as the `For` of ``for (; c; ) s``, and a `for`
without a condition gets `ONE`.  No record keeps a source line: a scope
error looks its line up from a token position as it is raised.
Statements and the program are slotted dataclasses: a record holds no
per-instance dict, compares by value and is not hashable.  The parser
builds each once and nothing mutates it afterwards.

Expressions are flat postfix code: a tuple of ``(opcode, argument)``
pairs, operands in source order, each operator after its operands.

    (LIT, n)        push the integer n
    (VAR, name)     push the value of a variable
    (NONDET, None)  push the value of this nondet() occurrence
    (UNARY, op)     replace the top value by `!` or `-` of it
    (BINARY, op)    replace the top two values by the operator applied to
                    them, the lower one the left operand
    (AND_SKIP, k)   stands before the right operand of `&&`: when the
                    left operand on top is 0, a short-circuiting evaluator
                    keeps that 0 and skips the next k ops (the right
                    operand and the BINARY op)
    (OR_SKIP, k)    likewise for `||` when the left operand is nonzero;
                    the top becomes 1

The parser builds the code with an explicit operator stack (Dijkstra's
shunting-yard), and every reader of it is one loop, so neither nesting
nor long operator chains recurse.  Code shares its pairs: within one
parse, every use of a variable is the `(VAR, name)` object of its
declaration, every occurrence of a literal text is the same `(LIT, n)`
object, and every `(BINARY, op)` is the one module-level pair of its
operator, so a large program holds one pair per declaration and distinct
literal rather than one per occurrence (hash-consing).  No pair of an
operand outlives its parse.  Only this module reads the opcodes, but
for `Cfa.numbering`, which picks out the `VAR` operands in one scan;
other modules go through `concrete_eval`, `abstract_eval`,
`expr_to_text`, `implied_equality`, `negate` and the constant
`NONDET_EXPR`.

`/` and `%` follow C99: truncation toward zero, remainder takes the sign
of the dividend.  Division by zero has no defined value; `concrete_eval`
raises :class:`EvalError` and callers treat the enclosing witness as
infeasible.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union


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
# Expression code and statements
# ---------------------------------------------------------------------------

# Opcodes.  The readers below compare them by identity, so code is built
# from these objects.
LIT = "lit"
VAR = "var"
NONDET = "nondet"
UNARY = "unary"
BINARY = "binary"
AND_SKIP = "and-skip"
OR_SKIP = "or-skip"

Expr = Tuple[Tuple[str, object], ...]

_NONDET = (NONDET, None)
NONDET_EXPR: Expr = (_NONDET,)
ONE: Expr = ((LIT, 1),)
_NOT = (UNARY, "!")
_NEG = (UNARY, "-")


def negate(expr: Expr) -> Expr:
    """`!(expr)`."""
    return expr + (_NOT,)


@dataclass(slots=True)
class Assign:
    name: str
    expr: Expr


@dataclass(slots=True)
class If:
    cond: Expr
    then: List["Stmt"]
    orelse: List["Stmt"]


@dataclass(slots=True)
class For:
    init: Optional[Assign]
    cond: Expr
    update: Optional[Assign]
    body: List["Stmt"]


@dataclass(slots=True)
class Assert:
    cond: Expr


@dataclass(slots=True)
class Return:
    """`return`, with or without a value.  The parser reads and
    scope-checks the value but keeps nothing of it: a single function's
    return value is unobservable."""


@dataclass(slots=True)
class Skip:
    """`;`."""


Stmt = Union[Assign, If, For, Assert, Return, Skip]


@dataclass(slots=True)
class Program:
    body: List[Stmt]
    name: str = "main"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {"int", "main", "if", "else", "while", "for", "assert", "return",
            "true", "false"}

# The lexer reads the text in two passes, and neither moves a line or a
# column.  The first blanks every comment: each of its characters but a
# newline becomes a space.  Every alternative of `_COMMENT` starts with a
# literal character, which gives the regular-expression engine a
# first-character prefix: it tries a match only where a `#` or a `/`
# occurs, not at every position (a group in front of the alternatives
# would hide that prefix).  A text with neither character has no comment,
# and `_Scan` skips the pass.  The second pass is one `findall` of `_TOKEN`
# over the whole text, a newline being a blank like any other: blanks,
# then one token, its alternatives tried in order.  The order puts the
# commonest token classes first, each one character class or a literal:
# ASCII identifiers, the one-character symbols that start no longer one,
# integers, then each symbol with its two-character extension (`==` after
# `=`, `++` after `+`, `/*` after `/`, and `&&` and `||`, whose halves are
# no symbol), so a typical token matches at its first or second try.  No
# two of these alternatives match at the same character, and each takes
# the longest symbol there, so the order splits every text as a longest
# match would, and an unterminated comment's `/*` stays one token.  Then
# comes the Unicode identifier class, which also admits a non-decimal
# numeric character such as `²` at its start, which `_kind` rejects, and
# last the catch-all, which takes one character that is not a blank, such
# as `@` or a lone `&`; `_kind` tells a symbol from a bad character.
# Since every token starts with a non-blank, trailing blanks are no token:
# the text loses them before the scan, which would otherwise retry a blank
# tail at each of its characters, quadratic in its length.  Nothing
# records where a token starts; only an error message needs it, and
# `_Scan.starts` scans the text once more to find it.
_COMMENT = re.compile(r"\#[^\n]*|//[^\n]*|/\*.*?\*/", re.DOTALL)
# Every symbol, the two-character ones first: the tests build their
# reference lexer's alternation from this order.  `_kind` looks a text up
# in `_SYMBOL_SET`.
_SYMBOLS = ("&&", "||", "==", "!=", "<=", ">=", "++", "--",
            "{", "}", "(", ")", ";", "=", "<", ">", "+", "-", "*", "/", "%",
            "!")
_SYMBOL_SET = frozenset(_SYMBOLS)
_TOKEN = re.compile(r"[ \t\r\n]*([A-Za-z_]\w*|[;(){}*%]|[0-9]+|[=!<>]=?"
                    r"|\+\+?|--?|&&|\|\||/\*?|[^\W\d]\w*|[^ \t\r\n])")
_BLANKS = " \t\r\n"


def _blank(comment: re.Match) -> str:
    return re.sub(r"[^\n]", " ", comment.group())


def _kind(text: str) -> str:
    """The kind of a token text: "int", "ident", "kw", "sym" or "eof"
    ("" closes the texts), "unterminated" for `/*` or "bad" for a
    character no token starts with."""
    if not text:
        return "eof"
    if "0" <= text[0] <= "9":
        return "int"
    if text in _SYMBOL_SET:
        return "sym"
    if text == "/*":
        return "unterminated"
    if text[0].isalpha() or text[0] == "_":
        return "kw" if text in KEYWORDS else "ident"
    return "bad"


class _Scan:
    """The tokens of a source text as a list of `texts`, closed by the eof
    text "", with the kind of each distinct text in `kinds`.  A lexical
    error anywhere is raised here, the first one in the text, before the
    parser reads a token.  Where each token starts (`starts`), and so its
    line (`lines`), is worked out on first use, which only an error
    message makes."""

    def __init__(self, source: str):
        self.text = (_COMMENT.sub(_blank, source)
                     if "#" in source or "/" in source else source)
        self.texts = texts = _TOKEN.findall(self.text.rstrip(_BLANKS))
        texts.append("")
        self.kinds = {text: _kind(text) for text in set(texts)}
        bad = {text for text, kind in self.kinds.items()
               if kind == "bad" or kind == "unterminated"}
        if bad:  # one pass finds the first, however many texts are bad
            first = operator.indexOf(map(bad.__contains__, texts), True)
            text = texts[first]
            raise self.error("unterminated comment" if text == "/*"
                             else f"unexpected character {text[0]!r}", first)

    @functools.cached_property
    def starts(self) -> List[int]:
        """The offset in `text` of each token; the eof text's is the end."""
        starts = [match.start(1) for match
                  in _TOKEN.finditer(self.text.rstrip(_BLANKS))]
        starts.append(len(self.text))
        return starts

    @functools.cached_property
    def lines(self) -> List[int]:
        """The line each token starts on."""
        lines, line, end = [], 1, 0
        for start in self.starts:
            line += self.text.count("\n", end, start)
            lines.append(line)
            end = start
        return lines

    def column(self, i: int) -> int:
        """The column of token `i`."""
        start = self.starts[i]
        return start - self.text.rfind("\n", 0, start)

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.lines[i], self.column(i))


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

MAX_BLOCK_DEPTH = 127

# The one `(BINARY, op)` pair of each operator, shared by all code.
_BINARY = {op: (BINARY, op) for op in PRECEDENCE}

# Operator-stack entries: (precedence, op to emit, index of its skip op or
# -1).  An open parenthesis binds loosest, so no operator pops past it.
# Only a short-circuit operator's entry is built per occurrence, since it
# holds the index of its skip op.
_OPEN = (0, None, -1)
_PREFIXES = {"(": _OPEN, "!": (UNARY_PRECEDENCE, _NOT, -1),
             "-": (UNARY_PRECEDENCE, _NEG, -1)}
_INFIXES = {op: (prec, _BINARY[op], -1) for op, prec in PRECEDENCE.items()}
_SKIPS = {"&&": AND_SKIP, "||": OR_SKIP}


def _emit(code: list, entry: tuple) -> None:
    """Append an operator-stack entry's op, first pointing its skip op, if
    any, past it."""
    _, op, skip = entry
    if skip >= 0:
        code[skip] = (_SKIPS[op[1]], len(code) - skip)
    code.append(op)


class _Parser:
    """Reads a `_Scan`'s texts at `pos`, never past the final eof text.

    `operands` maps the text of each operand the parser can read as a
    pair, to that pair: every variable in scope, and every literal read so
    far.  A literal text is never a name, so the scope checks read the
    same dict.  Each literal text of a parse, and each variable
    declaration, so has one pair object, however often it occurs."""

    def __init__(self, scan: _Scan):
        self.scan = scan
        self.texts = scan.texts
        self.kinds = scan.kinds
        self.pos = 0
        self.depth = 0  # blocks open around the current statement
        self.operands: Dict[str, tuple] = {}
        self.scopes: List[List[str]] = []  # names declared per open scope

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        return self.scan.error(message, self.pos if pos is None else pos)

    def found(self) -> str:
        """The next token's text, as an error message names it."""
        return self.texts[self.pos] or "end of input"

    def accept(self, text: str) -> bool:
        """Whether the next token is the given symbol or keyword; if so,
        it is consumed."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> int:
        """Consume the given symbol or keyword; its position."""
        pos = self.pos
        if self.texts[pos] != text:
            raise self.error(f"expected '{text}', found '{self.found()}'")
        self.pos = pos + 1
        return pos

    def expect_ident(self) -> str:
        text = self.texts[self.pos]
        if self.kinds[text] != "ident":
            raise self.error(f"expected identifier, found '{self.found()}'")
        self.pos += 1
        return text

    # -- scopes --------------------------------------------------------------

    def declare(self, name: str, at: int) -> None:
        if name in self.operands:
            raise ParseError(f"redeclaration of '{name}'",
                             self.scan.lines[at], 1)
        self.operands[name] = (VAR, name)
        self.scopes[-1].append(name)

    def close_scope(self) -> None:
        for name in self.scopes.pop():
            del self.operands[name]

    # -- program structure --------------------------------------------------

    def parse_program(self, name: str) -> Program:
        self.skip_prologue()
        self.expect("int")
        self.expect("main")
        self.expect("(")
        self.expect(")")
        body = self.parse_block()
        if self.texts[self.pos]:
            raise self.error("trailing input after main")
        return Program(body, name)

    def skip_prologue(self) -> None:
        # Forward declarations, e.g. `int nondet();`, before main.
        texts = self.texts
        while (texts[self.pos] == "int"
               and self.kinds[texts[self.pos + 1]] == "ident"
               and texts[self.pos + 2:self.pos + 5] == ["(", ")", ";"]):
            self.pos += 5

    def parse_block(self) -> List[Stmt]:
        brace = self.expect("{")
        self.depth += 1
        if self.depth > MAX_BLOCK_DEPTH:
            raise self.error(f"blocks nested deeper than {MAX_BLOCK_DEPTH}"
                             " levels", brace)
        self.scopes.append([])
        stmts: List[Stmt] = []
        texts, operands = self.texts, self.operands
        while True:
            pos = self.pos
            text = texts[pos]
            target = operands.get(text)
            # `ID = expr ;`, the commonest statement, is read here.
            if target is not None and target[0] is VAR \
                    and texts[pos + 1] == "=":
                self.pos = pos + 2
                expr = self.parse_expr(pos)
                self.expect(";")
                stmts.append(Assign(target[1], expr))
            elif text == "}":
                break
            elif not text:
                raise self.error("unterminated block")
            else:
                stmts.append(self.parse_stmt())
        self.pos += 1
        self.close_scope()
        self.depth -= 1
        return stmts

    def parse_loop_body(self) -> List[Stmt]:
        return [Skip()] if self.accept(";") else self.parse_block()

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        pos = self.pos
        text = self.texts[pos]
        target = self.operands.get(text)
        if target is not None and target[0] is VAR:  # `++` or `--`
            stmt = self.parse_assign_like(implicit=False)
            self.expect(";")
            return stmt
        if text == "int":
            stmt = self.parse_decl()
            self.expect(";")
            return stmt
        if text == ";":
            self.pos = pos + 1
            return Skip()
        if text == "if":
            return self.parse_if()
        if text == "while":
            return self.parse_while()
        if text == "for":
            return self.parse_for()
        if text == "assert":
            self.pos = pos + 1
            self.expect("(")
            cond = self.parse_expr(pos)
            self.expect(")")
            self.expect(";")
            return Assert(cond)
        if text == "return":
            self.pos = pos + 1
            if self.texts[self.pos] != ";":
                self.parse_expr(pos)
            self.expect(";")
            return Return()
        if self.kinds[text] == "ident":
            raise UndeclaredVariable(text, self.scan.lines[pos])
        raise self.error(f"expected statement, found '{self.found()}'")

    def parse_decl(self) -> Assign:
        """A declaration, at its `int`: the assignment of its initializer,
        or of `nondet()` without one."""
        at = self.pos
        self.pos += 1
        name = self.expect_ident()
        init = self.parse_expr(at) if self.accept("=") else NONDET_EXPR
        self.declare(name, at)
        return Assign(name, init)

    def assigned(self, name: str, at: int) -> Expr:
        """The code an assignment to `name` at `at` assigns, read from its
        `=`, `++` or `--` on; `name ++` assigns `name + 1`, and its `name`
        must be in scope."""
        text = self.texts[self.pos]
        if text == "++" or text == "--":
            self.pos += 1
            target = self.operands.get(name)
            if target is None:
                raise UndeclaredVariable(name, self.scan.lines[at])
            one = self.operands.setdefault("1", (LIT, 1))
            return target, one, _BINARY[text[0]]
        self.expect("=")
        return self.parse_expr(at)

    def parse_assign_like(self, implicit: bool) -> Assign:
        """An assignment, `++` or `--` in a `for` header, or a statement's
        `++` or `--`.  With `implicit` (an initializer) an undeclared
        target is declared by it."""
        at = self.pos
        name = self.expect_ident()
        if not implicit and name not in self.operands:
            raise UndeclaredVariable(name, self.scan.lines[at])
        expr = self.assigned(name, at)
        if implicit and name not in self.operands:
            self.declare(name, at)
        return Assign(name, expr)

    def parse_if(self) -> If:
        at = self.expect("if")
        self.expect("(")
        cond = self.parse_expr(at)
        self.expect(")")
        then = self.parse_block()
        orelse: List[Stmt] = []
        if self.accept("else"):
            orelse = self.parse_block()
        return If(cond, then, orelse)

    def parse_while(self) -> For:
        """`while (c) s`, read as `for (; c; ) s`."""
        at = self.expect("while")
        self.expect("(")
        cond = self.parse_expr(at)
        self.expect(")")
        return For(None, cond, None, self.parse_loop_body())

    def parse_for(self) -> For:
        at = self.expect("for")
        self.expect("(")
        self.scopes.append([])  # the initializer's variable
        init: Optional[Assign] = None
        if self.texts[self.pos] != ";":
            if self.texts[self.pos] == "int":
                init = self.parse_decl()
            else:
                init = self.parse_assign_like(implicit=True)
        self.expect(";")
        cond = ONE  # `for (;;)`
        if self.texts[self.pos] != ";":
            cond = self.parse_expr(at)
        self.expect(";")
        update: Optional[Assign] = None
        if self.texts[self.pos] != ")":
            update = self.parse_assign_like(implicit=False)
        self.expect(")")
        body = self.parse_loop_body()
        self.close_scope()
        return For(init, cond, update, body)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, at: int) -> Expr:
        """An expression as postfix code.  Two short shapes, followed by no
        infix operator, return at once: a lone operand with a pair in
        `operands`, and `a op b` of two such operands and an operator
        other than `&&` and `||`.  Any other expression is read by
        shunting-yard: an operator waits on `pending` until one binding no
        tighter follows its right operand.  An operand with a pair in
        `operands` is read here, any other by `parse_primary`.  Undeclared
        variables are reported at the line of the token at `at`."""
        texts = self.texts
        operands = self.operands
        pos = self.pos
        text = texts[pos]
        lhs = operands.get(text)
        if lhs is not None and text != "nondet":
            op = texts[pos + 1]
            if op not in _INFIXES:
                self.pos = pos + 1
                return (lhs,)
            text = texts[pos + 2]
            rhs = operands.get(text)
            if rhs is not None and text != "nondet" and op not in _SKIPS \
                    and texts[pos + 3] not in _INFIXES:
                self.pos = pos + 3
                return lhs, rhs, _BINARY[op]
        code: list = []
        pending: List[tuple] = []
        opened = 0  # open parentheses on `pending`
        while True:
            text = texts[pos]
            while text in _PREFIXES:
                if text == "(":
                    opened += 1
                pending.append(_PREFIXES[text])
                pos += 1
                text = texts[pos]
            pair = operands.get(text)
            if pair is None or text == "nondet":  # `nondet(` is no variable
                self.pos = pos
                pair = self.parse_primary(at)
                pos = self.pos
            else:
                pos += 1
            code.append(pair)
            text = texts[pos]
            while opened and text == ")":
                pos += 1
                while pending[-1] is not _OPEN:
                    _emit(code, pending.pop())
                pending.pop()
                opened -= 1
                text = texts[pos]
            entry = _INFIXES.get(text)
            if entry is None:
                break
            pos += 1
            prec = entry[0]
            while pending and pending[-1][0] >= prec:
                _emit(code, pending.pop())
            if text in _SKIPS:
                entry = (prec, entry[1], len(code))
                code.append(None)  # set when the operator is emitted
            pending.append(entry)
        self.pos = pos
        if opened:
            raise self.error(f"expected ')', found '{self.found()}'")
        while pending:
            _emit(code, pending.pop())
        return tuple(code)

    def parse_primary(self, at: int) -> Tuple[str, object]:
        """The operand at `pos` that `operands` has no pair for: `nondet()`,
        a literal on its first reading, a variable named `nondet`, or an
        error."""
        pos = self.pos
        text = self.texts[pos]
        kind = self.kinds[text]
        if kind == "ident":
            self.pos = pos + 1
            if text == "nondet" and self.accept("("):
                self.expect(")")
                return _NONDET
            if text not in self.operands:
                raise UndeclaredVariable(text, self.scan.lines[at])
            return self.operands[text]
        if kind == "int":
            try:
                value = int(text)
            except ValueError:  # longer than int() converts
                raise self.error(f"integer literal of {len(text)} digits"
                                 " is too long", pos) from None
        elif text == "true" or text == "false":
            value = 1 if text == "true" else 0
        else:
            raise self.error(f"expected expression, found '{self.found()}'")
        self.pos = pos + 1
        pair = self.operands[text] = (LIT, value)
        return pair


def parse_program(source: str, name: str = "main") -> Program:
    """Parse and scope-check a source text.

    Raises ParseError or UndeclaredVariable on ill-formed input.
    """
    return _Parser(_Scan(source)).parse_program(name)


# ---------------------------------------------------------------------------
# Readers of expression code
# ---------------------------------------------------------------------------


def expr_to_text(expr: Expr) -> str:
    """Deterministic source-like rendering, minimal parentheses.

    The rendering round-trips: as the expression of an assignment, assume
    or assert in a `main` that declares its variables, the text parses
    back to the same code.  So a unary minus parenthesises an operand whose
    text starts with `-`, since `--` is the decrement token.

    Most code is a lone operand or `a op b` of two operands, either bare
    or under one unary operator, and is rendered at once by one f-string;
    any other code by one loop over a stack of texts."""
    size = len(expr)
    op, arg = expr[-1]
    unary = ""
    if op is UNARY and (size == 2 or size == 4):
        unary = arg
        size -= 1
        op, arg = expr[size - 1]
    if size == 1:  # valid code of one op is an operand
        text = "nondet()" if op is NONDET else str(arg)
        if unary == "-" == text[0]:
            return f"-({text})"
        return unary + text
    if size == 3 and op is BINARY:  # so its first two ops are operands
        (lhs_op, lhs), (rhs_op, rhs) = expr[0], expr[1]
        if lhs_op is NONDET:
            lhs = "nondet()"
        if rhs_op is NONDET:
            rhs = "nondet()"
        if unary:
            return f"{unary}({lhs} {arg} {rhs})"
        return f"{lhs} {arg} {rhs}"
    # Entries: (text, precedence of its outermost operator); literals and
    # variables never need parentheses.
    stack: List[Tuple[str, int]] = []
    for op, arg in expr:
        if op is BINARY:
            rhs, rhs_prec = stack.pop()
            lhs, lhs_prec = stack[-1]
            prec = PRECEDENCE[arg]
            if lhs_prec < prec:
                lhs = f"({lhs})"
            if rhs_prec <= prec:
                rhs = f"({rhs})"
            stack[-1] = (f"{lhs} {arg} {rhs}", prec)
        elif op is UNARY:
            text, prec = stack[-1]
            if prec < UNARY_PRECEDENCE or arg == "-" == text[0]:
                text = f"({text})"
            stack[-1] = (arg + text, UNARY_PRECEDENCE)
        elif op is not AND_SKIP and op is not OR_SKIP:
            text = "nondet()" if op is NONDET else str(arg)
            stack.append((text, UNARY_PRECEDENCE))
    return stack[-1][0]


def implied_equality(guard: Expr) -> Optional[Tuple[str, int]]:
    """`(name, c)` when the guard has the shape `name == c` or `c == name`,
    c a literal possibly under one unary minus, under any number of `!`
    (an odd number of them turning `!=` into `==`)."""
    end = len(guard)
    while guard[end - 1] == _NOT:
        end -= 1
    if guard[end - 1] != (BINARY, "!=" if (len(guard) - end) % 2 else "=="):
        return None
    operands = guard[:end - 1]
    if operands[0][0] is VAR:
        var, const = operands[0], operands[1:]
    else:
        var, const = operands[-1], operands[:-1]
    if var[0] is not VAR or const[0][0] is not LIT or \
            const[1:] not in ((), (_NEG,)):
        return None
    return var[1], -const[0][1] if const[1:] else const[0][1]


def c_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def c_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    return a - c_div(a, b) * b


# The one binary operator table.  `&&`/`||` give the value of their
# short-circuit form; whether the right operand is evaluated at all is the
# evaluator's choice.
_BINARY_OPS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": c_div, "%": c_mod,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "&&": lambda a, b: 1 if a != 0 and b != 0 else 0,
    "||": lambda a, b: 1 if a != 0 or b != 0 else 0,
}


def concrete_eval(expr: Expr, env: dict, next_nondet: Callable[[], int]) -> int:
    """Evaluate under a concrete environment.

    `next_nondet` supplies the value of each nondet() occurrence, in
    left-to-right evaluation order.  `&&`/`||` short-circuit, so an
    unreached operand consumes no nondet occurrences.
    """
    stack: List[int] = []
    push = stack.append
    ops = iter(expr)
    for op, arg in ops:
        if op is LIT:
            push(arg)
        elif op is VAR:
            push(env[arg])
        elif op is BINARY:
            b = stack.pop()
            stack[-1] = _BINARY_OPS[arg](stack[-1], b)
        elif op is NONDET:
            push(next_nondet())
        elif op is UNARY:
            stack[-1] = -stack[-1] if arg == "-" else 0 if stack[-1] else 1
        elif (stack[-1] != 0) == (op is OR_SKIP):  # the left operand decides
            stack[-1] = 1 if op is OR_SKIP else 0
            for _ in range(arg):
                next(ops)
    return stack[-1]


# The abstract value of an integer the analysis does not know.
TOP = "top"


def abstract_eval(expr: Expr, valuation: tuple, index: Dict[str, int]) -> object:
    """Evaluate to an int or TOP over a valuation indexed by `index`.  A
    top operand makes the result top, except that a definite operand that
    decides `&&`/`||` alone decides it from either side: `0 && nondet()`
    and `nondet() && 0` are 0, `a || 1` and `1 || a` are 1 for any `a`."""
    stack: list = []
    push = stack.append
    for op, arg in expr:
        if op is LIT:
            push(arg)
        elif op is VAR:
            push(valuation[index[arg]])
        elif op is BINARY:
            b = stack.pop()
            a = stack[-1]
            if a is not TOP and b is not TOP:
                try:
                    stack[-1] = _BINARY_OPS[arg](a, b)
                except EvalError:
                    stack[-1] = TOP
                continue
            known = a if b is TOP else b  # TOP when both are
            if arg == "&&" and known is not TOP and known == 0:
                stack[-1] = 0
            elif arg == "||" and known is not TOP and known != 0:
                stack[-1] = 1
            else:
                stack[-1] = TOP
        elif op is NONDET:
            push(TOP)
        elif op is UNARY and stack[-1] is not TOP:
            stack[-1] = -stack[-1] if arg == "-" else 0 if stack[-1] else 1
    return stack[-1]
