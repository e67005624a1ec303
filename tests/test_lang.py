"""Frontend: lexing, parsing, scope rules, postfix code, rendering and
evaluation.

Run it as a script to print the microseconds per token that scanning,
parsing and lowering take, and the microseconds per statement that
`dump_cfa` takes, on programs of `large_source`'s shape, the benchmark's
`frontend-large`, of 150 to 1,200 blocks:

    PYTHONPATH=src python tests/test_lang.py
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time
from unittest import mock

import pytest

from vericov import lang, lowering, source_to_cfa
from vericov.cfa import dump_cfa
from vericov.lang import (AND_SKIP, BINARY, LIT, NONDET, OR_SKIP, TOP, UNARY,
                          VAR, Assign, EvalError, For, ParseError, Return,
                          Skip, UndeclaredVariable,
                          abstract_eval, concrete_eval, expr_to_text,
                          implied_equality, negate, parse_program)

from vericov.cli import EXIT_OK, EXIT_USAGE, main

from conftest import fixture_source
from test_explorer import _CORPORA, _random_program
from test_frontend_memory import large_source
from test_parse_outcomes import _corpus, _outcome


def test_minimal_program():
    program = parse_program("int main() { return 0; }")
    assert len(program.body) == 1
    assert isinstance(program.body[0], Return)


def test_a_returned_value_is_checked_but_not_kept():
    assert parse_program("int main() { int x = 1; return x + 1; }").body[1] \
        == Return()
    with pytest.raises(UndeclaredVariable) as info:
        parse_program("int main() {\n  return y;\n}")
    assert (info.value.name, info.value.line) == ("y", 2)
    with pytest.raises(ParseError) as info:
        parse_program("int main() { return 1 +; }")
    assert (info.value.line, info.value.col) == (1, 24)


def test_prologue_lines_are_ignored():
    program = parse_program(
        "#include <assert.h>\n"
        "#define false 0;\n"
        "int nondet();\n"
        "int main() { return 0; }\n")
    assert len(program.body) == 1


def test_declarations_and_assignment():
    program = parse_program(
        "int main() { int x = 3; int y; y = x + 1; return 0; }")
    decl_x, decl_y, assign = program.body[:3]
    # A declaration is the assignment of its initializer, or of nondet().
    assert decl_x == Assign("x", ((LIT, 3),))
    assert decl_y == Assign("y", lang.NONDET_EXPR)
    assert assign == Assign("y", ((VAR, "x"), (LIT, 1), (BINARY, "+")))


def test_true_false_are_literals():
    program = parse_program(
        "int main() { int x = true; assert(false); return 0; }")
    assert program.body[0].expr == ((LIT, 1),)
    assert program.body[1].cond == ((LIT, 0),)


def test_increment_decrement_sugar():
    program = parse_program("int main() { int i = 0; i++; i--; return 0; }")
    inc, dec = program.body[1], program.body[2]
    assert inc == Assign("i", ((VAR, "i"), (LIT, 1), (BINARY, "+")))
    assert dec == Assign("i", ((VAR, "i"), (LIT, 1), (BINARY, "-")))


def _init(expr: str, names: str = "abc"):
    """The code of `expr` as the initializer of r, after int a, b, c."""
    decls = "".join(f"int {name} = 1; " for name in names)
    program = parse_program("int nondet();\n"
                            f"int main() {{ {decls}int r = {expr}; }}")
    return program.body[len(names)].expr


def test_precedence_tree():
    assert _init("1 + 2 * 3 < 7 && 1") == (
        (LIT, 1), (LIT, 2), (LIT, 3), (BINARY, "*"), (BINARY, "+"),
        (LIT, 7), (BINARY, "<"), (AND_SKIP, 2), (LIT, 1), (BINARY, "&&"))


def test_operators_are_left_associative():
    assert _init("a - b - c") == (
        (VAR, "a"), (VAR, "b"), (BINARY, "-"), (VAR, "c"), (BINARY, "-"))
    assert _init("a - (b - c)") == (
        (VAR, "a"), (VAR, "b"), (VAR, "c"), (BINARY, "-"), (BINARY, "-"))


def test_skip_ops_jump_past_the_right_operand():
    # Each skip counts the ops of the right operand plus the operator.
    assert _init("a && b || c") == (
        (VAR, "a"), (AND_SKIP, 2), (VAR, "b"), (BINARY, "&&"),
        (OR_SKIP, 2), (VAR, "c"), (BINARY, "||"))
    assert _init("a || (b && -c)") == (
        (VAR, "a"), (OR_SKIP, 6), (VAR, "b"), (AND_SKIP, 3), (VAR, "c"),
        (UNARY, "-"), (BINARY, "&&"), (BINARY, "||"))


def test_unary_parsing():
    program = parse_program("int main() { int x = -1; int y = !x; return 0; }")
    assert program.body[0].expr == ((LIT, 1), (UNARY, "-"))
    assert program.body[1].expr == ((VAR, "x"), (UNARY, "!"))
    assert _init("-!(a + 1)") == (
        (VAR, "a"), (LIT, 1), (BINARY, "+"), (UNARY, "!"), (UNARY, "-"))


def test_nondet_call():
    program = parse_program(
        "int nondet();\nint main() { int x = nondet(); return 0; }")
    assert program.body[0].expr == lang.NONDET_EXPR == ((NONDET, None),)


def test_if_requires_blocks():
    with pytest.raises(ParseError):
        parse_program("int main() { int x = 1; if (x) x = 2; return 0; }")


def test_loop_body_block_or_semicolon():
    program = parse_program("int main() { while (0); return 0; }")
    # `while (c) s` is read as `for (; c; ) s`.
    assert program.body[0] == For(None, ((LIT, 0),), None, [Skip()])

    program = parse_program("int main() { while (0) { } return 0; }")
    assert program.body[0].body == []
    # A `for` without a condition loops on `1`.
    program = parse_program("int main() { for (;;) { } }")
    assert program.body[0] == For(None, lang.ONE, None, [])


def test_for_loop_with_implicit_declaration():
    program = parse_program(fixture_source("bigloop.c"))
    loop = program.body[0]
    assert isinstance(loop, For)
    assert isinstance(loop.init, Assign)
    assert loop.cond == ((VAR, "i"), (LIT, 1000000), (BINARY, "<"))
    assert len(loop.body) == 1 and isinstance(loop.body[0], Skip)
    # The assignment declares i for the loop: in scope in the body,
    # undeclared after it.
    parse_program("int main() { for (i = 0; i < 2; i++) { int j = i; } }")
    with pytest.raises(UndeclaredVariable) as info:
        parse_program("int main() {\n for (i = 0; i < 2; i++) { }\n"
                      " i = 3;\n}")
    assert (info.value.name, info.value.line) == ("i", 3)


def test_for_initializer_assignment_keeps_a_declared_variable():
    # Nothing new is declared, so i outlives the loop and the body cannot
    # declare it again.
    parse_program("int main() { int i = 5; for (i = 0; i < 2; i++) { } "
                  "i = 3; }")
    with pytest.raises(ParseError, match="redeclaration of 'i'"):
        parse_program("int main() { int i = 5; "
                      "for (i = 0; i < 2; i++) { int i = 1; } }")


def test_for_with_declared_initializer():
    program = parse_program(
        "int main() { for (int i = 0; i < 2; i++) { int j = i; } return 0; }")
    loop = program.body[0]
    assert loop.init == Assign("i", ((LIT, 0),))
    with pytest.raises(UndeclaredVariable):
        parse_program("int main() { for (int i = 0; i < 2; i++) { } "
                      "i = 0; }")


def test_statement_level_assignment_to_undeclared_fails():
    with pytest.raises(UndeclaredVariable):
        parse_program("int main() { x = 1; return 0; }")


def test_increment_of_an_undeclared_variable_fails():
    # Only a for initializer's `=` declares; `i++` there must find i.
    with pytest.raises(UndeclaredVariable) as info:
        parse_program("int main() {\n for (i++; ; ) ;\n}")
    assert (info.value.name, info.value.line) == ("i", 2)
    loop = parse_program("int main() { int i = 0; for (i++; ; ) ; }").body[1]
    assert loop.init == Assign("i", ((VAR, "i"), (LIT, 1), (BINARY, "+")))


def test_a_variable_may_be_named_nondet():
    # `nondet` is a call only when `(` follows it.
    program = parse_program(
        "int main() { int nondet = 2; int x = nondet; int y = nondet(); }")
    assert program.body[1] == Assign("x", ((VAR, "nondet"),))
    assert program.body[2] == Assign("y", ((NONDET, None),))
    with pytest.raises(UndeclaredVariable, match="nondet"):
        parse_program("int main() { int x = nondet; }")


def test_use_before_declaration_fails():
    with pytest.raises(UndeclaredVariable):
        parse_program("int main() { int y = x; int x = 1; return 0; }")
    with pytest.raises(UndeclaredVariable):
        parse_program("int main() { int x = x + 1; return 0; }")


def test_block_scope_ends():
    with pytest.raises(UndeclaredVariable):
        parse_program(
            "int main() { if (1) { int t = 1; } else { } t = 2; return 0; }")


def test_redeclaration_rejected():
    with pytest.raises(ParseError):
        parse_program("int main() { int x = 1; int x = 2; return 0; }")


def test_shadowing_rejected():
    with pytest.raises(ParseError):
        parse_program(
            "int main() { int x = 1; if (x) { int x = 2; } else { } "
            "return 0; }")


def test_scope_errors_name_the_statement_line():
    with pytest.raises(UndeclaredVariable) as info:
        parse_program("int main() {\n  int y = 1 +\n    x;\n}")
    assert (info.value.name, info.value.line) == ("x", 2)
    with pytest.raises(UndeclaredVariable) as info:
        parse_program("int main() {\n  for (int i = 0;\n j < 3; i++) { }\n}")
    assert (info.value.name, info.value.line) == ("j", 2)
    with pytest.raises(ParseError) as info:
        parse_program("int main() {\n  int x = 1;\n  int x = 2;\n}")
    assert (info.value.line, info.value.col) == (3, 1)


def test_first_error_in_the_text_wins():
    # Scopes are checked while parsing, so a scope error before a syntax
    # error is the one reported, and the other way round.
    with pytest.raises(UndeclaredVariable):
        parse_program("int main() {\n  y = 1;\n  int x = ;\n}")
    with pytest.raises(ParseError):
        parse_program("int main() {\n  int x = ;\n  y = 1;\n}")


def test_tokens_and_positions():
    source = ("#include <x.h>\nint main() {\t/* a\n  b */ x1 = 12;"
              " // c\n  y>=-- z;}")
    scan = lang._Scan(source)
    assert [(scan.kinds[text], text, line, scan.column(i))
            for i, (text, line) in enumerate(zip(scan.texts, scan.lines))
            ] == [
        ("kw", "int", 2, 1), ("kw", "main", 2, 5), ("sym", "(", 2, 9),
        ("sym", ")", 2, 10), ("sym", "{", 2, 12), ("ident", "x1", 3, 8),
        ("sym", "=", 3, 11), ("int", "12", 3, 13), ("sym", ";", 3, 15),
        ("ident", "y", 4, 3), ("sym", ">=", 4, 4), ("sym", "--", 4, 6),
        ("ident", "z", 4, 9), ("sym", ";", 4, 10), ("sym", "}", 4, 11),
        ("eof", "", 4, 12)]


def test_lexical_errors_have_positions():
    with pytest.raises(ParseError) as info:
        parse_program("int main() {\n  /* open\n}")
    assert (info.value.message, info.value.line, info.value.col) == (
        "unterminated comment", 2, 3)
    # A superscript two continues an identifier but cannot start one.
    program = parse_program("int main() { int x\u00b2 = 1; return 0; }")
    assert program.body[0].name == "x\u00b2"
    with pytest.raises(ParseError) as info:
        parse_program("int \u00b2x;")
    assert (info.value.message, info.value.line, info.value.col) == (
        "unexpected character '\u00b2'", 1, 5)


@pytest.mark.parametrize("bad, position", [
    ("a + \u00b3b * \u00b2c @ \u00b2c", (3, 11)),
    ("/* \u00b2 @ */ a @ \u00b2d", (3, 19)),
    (" ".join(f"\u00b2a{i}" for i in range(2000, 0, -1)), (3, 7)),
])
def test_the_first_of_many_lexical_errors_is_reported(bad, position):
    source = f"int main() {{\n  int a = 1;\n  a = {bad};\n  /* open\n}}"
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert (info.value.line, info.value.col) == position
    assert info.value.message == (
        f"unexpected character {bad[position[1] - 7]!r}")


# The lexer's former body, which read the text line by line with its own
# `findall` and kept the line of every token, is the reference for
# `lang._Scan`.
_REFERENCE_TOKEN = re.compile(r"[ \t\r]*([0-9]+|[^\W\d]\w*|/\*|"
                              + "|".join(map(re.escape, lang._SYMBOLS))
                              + r"|[^ \t\r])")


class _ReferenceScan:
    def __init__(self, source: str):
        self.rows = lang._COMMENT.sub(lang._blank, source).split("\n")
        self.texts = texts = []
        self.lines = lines = []
        self.columns = columns = []
        for number, row in enumerate(self.rows, 1):
            found = list(_REFERENCE_TOKEN.finditer(row.rstrip(" \t\r")))
            texts += [match.group(1) for match in found]
            lines += [number] * len(found)
            columns += [match.start(1) + 1 for match in found]
        texts.append("")
        lines.append(len(self.rows))
        columns.append(len(self.rows[-1]) + 1)
        self.kinds = {text: lang._kind(text) for text in set(texts)}
        bad = [i for i, text in enumerate(texts)
               if self.kinds[text] in ("bad", "unterminated")]
        if bad:
            text = texts[bad[0]]
            raise ParseError("unterminated comment" if text == "/*"
                             else f"unexpected character {text[0]!r}",
                             lines[bad[0]], self.column(bad[0]))

    def column(self, i: int) -> int:
        return self.columns[i]


def _scan(scanner, source: str):
    """Every token's text, kind, line and column, or the lexical error."""
    try:
        scan = scanner(source)
    except ParseError as error:
        return error.message, error.line, error.col
    return [(text, scan.kinds[text], line, scan.column(i))
            for i, (text, line) in enumerate(zip(scan.texts, scan.lines))]


def test_the_lexer_matches_the_reference_on_every_corpus():
    # The parse-outcome corpus, which the dump-outcome golden also reads,
    # and 120 programs of each random corpus of `test_explorer`.
    sources = list(_corpus())
    for seed, generator, _ in _CORPORA:
        rng = random.Random(seed)
        sources += [_random_program(rng, **generator) for _ in range(120)]
    scanned = 0
    for source in sources:
        expected = _scan(_ReferenceScan, source)
        assert _scan(lang._Scan, source) == expected, source
        scanned += isinstance(expected, list)
    assert (len(sources), scanned) == (13484, 11003)


# Fragments that a wrongly ordered alternation would split unlike the
# reference: identifier starts and continuations outside ASCII, each
# two-character symbol beside its one-character prefix, and a `#` inside an
# expression.
_ADVERSARIAL = ["\u00e91", "x\u0663", "_\u00b2", "\u00b2x", "!==", "<<=", ">>=",
                "+++", "---", "&&&", "|||", "/*/", "a/b", "a//b", "a # b"]


@pytest.mark.parametrize("source", _ADVERSARIAL + [
    " ".join(_ADVERSARIAL), "".join(_ADVERSARIAL), "\n".join(_ADVERSARIAL)]
    + [f"int main() {{\n  int a = 1;\n  a = {fragment} ;\n}}\n"
       for fragment in _ADVERSARIAL])
def test_the_lexer_matches_the_reference_on_adversarial_sources(source):
    assert _scan(lang._Scan, source) == _scan(_ReferenceScan, source)


@pytest.mark.parametrize("source, blanked", [
    ("int main() {\n  int a = 7;\n  a = a * 2 % 3 - -a;\n}\n", False),
    ("int main() {\n  int a = 7;\n  a = a / 2;\n}\n", True),
    ("#include <x.h>\nint main() {\n  int a = 7;\n}\n", True),
    ("int main() {\n  int a = 7; // seven\n  a = a;\n}\n", True),
    ("int main() {\n  int a /* x\n y */ = 7;\n}\n", True),
    ("int main() {\n  int a = 7;\n  a = @;\n}\n", False),
], ids=["comment-free", "division", "directive", "line", "block",
        "comment-free-error"])
def test_a_text_without_hash_or_slash_skips_the_comment_pass(
        monkeypatch, source, blanked):
    expected = _scan(_ReferenceScan, source)
    spy = mock.Mock(wraps=lang._COMMENT)
    monkeypatch.setattr(lang, "_COMMENT", spy)
    assert _scan(lang._Scan, source) == expected
    assert spy.sub.call_count == blanked


_BLANK_RUN = 200_000


@pytest.mark.parametrize("source, expected", [
    ("int main() { return 0; }" + " " * _BLANK_RUN,
     "Program(body=[Return()], name='main')"),
    ("int main() {" + " " * _BLANK_RUN + "return 0; }",
     "Program(body=[Return()], name='main')"),
    ("int main() { return 0; }" + "\t\r\n " * (_BLANK_RUN // 4),
     "Program(body=[Return()], name='main')"),
    ("int main() { return 0; }" + " " * _BLANK_RUN + "\n// " + " " * _BLANK_RUN
     + "\n/* " + " " * _BLANK_RUN + "\n" + " " * _BLANK_RUN + " */",
     "Program(body=[Return()], name='main')"),
    ("int main() {" + " " * _BLANK_RUN,
     "ParseError: 1:200013: unterminated block"),
    ("int main() { int x =" + " " * _BLANK_RUN + "; }",
     "ParseError: 1:200021: expected expression, found ';'"),
    ("int main() {" + "\t\r\n " * (_BLANK_RUN // 4),
     "ParseError: 50001:2: unterminated block"),
], ids=["tail", "between", "mixed-tail", "comment-tails", "tail-error",
        "between-error", "mixed-tail-error"])
def test_long_blank_runs_are_read_in_linear_time(tmp_path, capsys, source,
                                                  expected):
    # A blank run that no token follows is matched once, not once per
    # character of it: without stripping the text's blank tail, the first
    # source alone takes minutes.
    start = time.perf_counter()
    assert _outcome(source) == expected
    assert time.perf_counter() - start < 2.0
    program = tmp_path / "blanks.c"
    program.write_text(source)
    assert main(["cfa-dump", str(program)]) in (EXIT_OK, EXIT_USAGE)
    capsys.readouterr()


def _parsed_scan(monkeypatch, source: str):
    """The `_Scan` that `parse_program` makes of `source`, and the outcome
    of the parse."""
    scans = []

    class Recorded(lang._Scan):
        def __init__(self, text: str):
            scans.append(self)
            super().__init__(text)

    monkeypatch.setattr(lang, "_Scan", Recorded)
    return scans, _outcome(source)


def test_a_parse_works_out_no_token_position(monkeypatch):
    scans, outcome = _parsed_scan(monkeypatch, fixture_source("bigloop.c"))
    assert outcome.startswith("Program(")
    assert "starts" not in vars(scans[0]) and "lines" not in vars(scans[0])


@pytest.mark.parametrize("body, expected", [
    ("x = @;\n}", "ParseError: 3:7: unexpected character '@'"),
    ("x = 2 +;\n}", "ParseError: 3:10: expected expression, found ';'"),
    ("x = y;\n}", "UndeclaredVariable: line 3: undeclared variable 'y'"),
    ("int x = 2;\n}", "ParseError: 3:1: redeclaration of 'x'"),
    ("", "ParseError: 3:3: unterminated block"),
], ids=["lexical", "syntax", "undeclared", "redeclaration", "end-of-input"])
def test_each_error_works_out_its_position(monkeypatch, body, expected):
    scans, outcome = _parsed_scan(monkeypatch,
                                  "int main() {\n  int x = 1;\n  " + body)
    assert outcome == expected
    assert "lines" in vars(scans[0])


def test_parse_error_has_position():
    with pytest.raises(ParseError) as info:
        parse_program("int main() { int x = ; return 0; }")
    assert info.value.line == 1
    assert info.value.col > 0


@pytest.mark.parametrize("source", [
    "int main() { int x = 1 }",         # missing semicolon
    "int main() { @ }",                 # bad character
    "int main() { if (1) { } }extra",   # content after body
    "int main() { assert 1; }",         # assert needs parentheses
    "int main() { int x = \u00b2; }",   # superscript two: not an ASCII digit
    "int main() { int x = 1\u0661; }",  # Arabic-Indic digit after a 1
])
def test_malformed_programs_raise(source):
    with pytest.raises(ParseError):
        parse_program(source)


# Rendering ------------------------------------------------------------------


@pytest.mark.parametrize("source, expected", [
    ("1 + 2 * 3", "1 + 2 * 3"),
    ("(1 + 2) * 3", "(1 + 2) * 3"),
    ("a < 1 && b < 2", "a < 1 && b < 2"),
    ("!(a < 1)", "!(a < 1)"),
    ("!a", "!a"),
    ("-(a + 1)", "-(a + 1)"),
    ("-a + 1", "-a + 1"),
    ("a - (b - c)", "a - (b - c)"),
    ("a / b % c", "a / b % c"),
    ("(a && b) || c", "a && b || c"),  # && binds tighter; parens are redundant
    ("a && (b || c)", "a && (b || c)"),
    ("nondet() + 1", "nondet() + 1"),
    ("-(-a)", "-(-a)"),  # not `--a`: `--` is the decrement token
    ("-(-3)", "-(-3)"),
    ("-(-(-a))", "-(-(-a))"),
    ("-!-a", "-!-a"),
    ("!-a - -b", "!-a - -b"),
])
def test_expression_rendering(source, expected):
    program = parse_program(
        "int nondet();\n"
        "int main() { int a = 1; int b = 1; int c = 1; "
        f"int r = {source}; return 0; }}")
    assert expr_to_text(program.body[3].expr) == expected


def test_rendering_negated_comparison_single_parens():
    # The negated branch guard must render with exactly one paren layer.
    assert expr_to_text(negate(_init("i < 10", "i"))) == "!(i < 10)"
    assert expr_to_text(negate(_init("(i < 10)", "i"))) == "!(i < 10)"


def _corpus_expressions():
    """The expressions of every assign, assume and assert lowered from the
    parse-outcome corpus and from 120 programs of each random corpus of
    `test_explorer`."""
    sources = list(_corpus())
    for seed, generator, _ in _CORPORA:
        rng = random.Random(seed)
        sources += [_random_program(rng, **generator) for _ in range(120)]
    for source in sources:
        try:
            cfa = source_to_cfa(source)
        except (ParseError, UndeclaredVariable):
            continue
        yield from (e.expr for e in cfa.edges if e.expr is not None)


def _parses_back(expr) -> bool:
    """Whether the rendering of `expr`, asserted in a `main` that declares
    its variables, parses back to the same code."""
    names = dict.fromkeys(arg for op, arg in expr if op is VAR)
    decls = "".join(f"int {name} = 0; " for name in names)
    try:
        program = parse_program(
            "int nondet();\n"
            f"int main() {{ {decls}assert({expr_to_text(expr)}); }}")
    except ParseError:
        return False
    return program.body[-1].cond == expr


def _reference_expr_to_text(expr) -> str:
    """`expr_to_text` without its short shapes: one loop over a stack of
    (text, precedence of its outermost operator) entries for every code."""
    stack = []
    for op, arg in expr:
        if op is BINARY:
            rhs, rhs_prec = stack.pop()
            lhs, lhs_prec = stack[-1]
            prec = lang.PRECEDENCE[arg]
            if lhs_prec < prec:
                lhs = f"({lhs})"
            if rhs_prec <= prec:
                rhs = f"({rhs})"
            stack[-1] = (f"{lhs} {arg} {rhs}", prec)
        elif op is UNARY:
            text, prec = stack[-1]
            if prec < lang.UNARY_PRECEDENCE or arg == "-" == text[0]:
                text = f"({text})"
            stack[-1] = (arg + text, lang.UNARY_PRECEDENCE)
        elif op is not AND_SKIP and op is not OR_SKIP:
            text = "nondet()" if op is NONDET else str(arg)
            stack.append((text, lang.UNARY_PRECEDENCE))
    return stack[-1][0]


def _short_shapes():
    """Every code of a short shape over a positive and a negative literal,
    a variable and `nondet()`, under no, one or two unary operators, some
    of it code the parser never builds (a negative `LIT`, `&&` and `||`
    without their skip ops); and longer code beside those shapes."""
    operands = [(LIT, 3), (LIT, -3), (VAR, "a"), (NONDET, None)]
    shapes = [(x,) for x in operands]
    shapes += [(x, y, (BINARY, op))
               for x in operands for y in operands for op in lang.PRECEDENCE]
    unaries = [(), ((UNARY, "!"),), ((UNARY, "-"),)]
    codes = [shape + u + v for shape in shapes for u in unaries
             for v in unaries if u or not v]
    codes += [
        ((VAR, "a"), (AND_SKIP, 2), (VAR, "b"), (BINARY, "&&")),
        ((VAR, "a"), (OR_SKIP, 2), (VAR, "b"), (BINARY, "||"), (UNARY, "!")),
        ((VAR, "a"), (UNARY, "-"), (VAR, "b"), (BINARY, "*")),
        ((VAR, "a"), (VAR, "b"), (UNARY, "-"), (BINARY, "-")),
        ((VAR, "a"), (VAR, "b"), (VAR, "c"), (BINARY, "-"), (BINARY, "-")),
    ]
    return codes


def test_rendering_matches_the_reference():
    codes = list(_corpus_expressions()) + _short_shapes()
    assert [expr_to_text(code) for code in codes] == \
        [_reference_expr_to_text(code) for code in codes]
    assert [expr_to_text(code) for code in (
        ((LIT, -3),), ((LIT, -3), (UNARY, "-")), ((LIT, 3), (UNARY, "-")),
        ((LIT, 3), (UNARY, "-"), (UNARY, "-")),
        ((NONDET, None), (VAR, "a"), (BINARY, "-"), (UNARY, "-")),
        ((VAR, "a"), (NONDET, None), (BINARY, "<"), (UNARY, "!")),
        ((VAR, "a"), (VAR, "b"), (BINARY, "&&")),
        ((VAR, "a"), (VAR, "b"), (BINARY, "||"), (UNARY, "!")))] == [
        "-3", "-(-3)", "-3", "-(-3)", "-(nondet() - a)", "!(a < nondet())",
        "a && b", "!(a || b)"]


def test_rendering_parses_back_to_the_same_code():
    # 2,876 expressions of the parse-outcome corpus and 6,051 of the random
    # programs.
    expressions = list(_corpus_expressions())
    assert len(expressions) == 8927
    assert [expr_to_text(e) for e in expressions if not _parses_back(e)] == []


# Concrete evaluation --------------------------------------------------------


def _eval_text(source: str, env=None, draws=()):
    decls = "".join(f"int {name} = 0; " for name in (env or {}))
    program = parse_program(
        "int nondet();\n"
        f"int main() {{ {decls}int r = {source}; return 0; }}")
    pending = list(draws)
    return concrete_eval(program.body[len(env or {})].expr, dict(env or {}),
                         lambda: pending.pop(0))


@pytest.mark.parametrize("source, expected", [
    ("2 + 3 * 4", 14),
    ("10 - 2 - 3", 5),
    ("7 / 2", 3),
    ("-7 / 2", -3),
    ("7 / -2", -3),
    ("-7 / -2", 3),
    ("7 % 2", 1),
    ("-7 % 2", -1),
    ("7 % -2", 1),
    ("-7 % -2", -1),
    ("3 < 3", 0),
    ("3 <= 3", 1),
    ("4 > 3", 1),
    ("2 >= 3", 0),
    ("5 == 5", 1),
    ("5 != 5", 0),
    ("!0", 1),
    ("!7", 0),
    ("-(2 + 3)", -5),
    ("2 && 3", 1),
    ("0 && 3", 0),
    ("0 || 0", 0),
    ("0 || 9", 1),
    ("5 || 0", 1),
    ("-5 && 2", 1),
])
def test_concrete_eval_table(source, expected):
    assert _eval_text(source) == expected


def test_concrete_eval_reads_environment():
    assert _eval_text("a * b", env={"a": 6, "b": 7}) == 42


def test_concrete_eval_nondet_order():
    assert _eval_text("nondet() - nondet()", draws=[10, 4]) == 6


def test_short_circuit_skips_nondet():
    # The right operand is never evaluated, so no draw is consumed.
    assert _eval_text("0 && nondet()", draws=[]) == 0
    assert _eval_text("1 || nondet()", draws=[]) == 1


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        _eval_text("1 / 0")
    with pytest.raises(EvalError):
        _eval_text("1 % 0")


def test_big_integers_do_not_wrap():
    assert _eval_text("1000000 * 1000000") == 10 ** 12


def test_nested_short_circuits():
    assert _eval_text("0 || (1 && nondet())", draws=[5]) == 1
    assert _eval_text("0 || (0 && nondet()) || nondet() - 2",
                      draws=[2]) == 0
    assert _eval_text("!(1 && 0) && nondet() || nondet()", draws=[0, 7]) == 1


def test_long_and_deep_expressions_do_not_recurse():
    chain = " + ".join(["a"] * 5000)
    code = _init(chain, "a")
    assert len(code) == 9999
    assert concrete_eval(code, {"a": 2}, lambda: 0) == 10000
    assert expr_to_text(code) == chain
    code = _init("(" * 1000 + "!-" * 1000 + "a" + ")" * 1000, "a")
    assert concrete_eval(code, {"a": 3}, lambda: 0) == 1
    assert expr_to_text(code) == "!-" * 1000 + "a"


def test_abstract_eval_does_not_short_circuit():
    index = {"a": 0}
    assert abstract_eval(_init("0 && nondet()", "a"), (1,), index) == 0
    assert abstract_eval(_init("a || 1", "a"), (TOP,), index) == 1
    assert abstract_eval(_init("a && 0", "a"), (5,), index) == 0
    assert abstract_eval(_init("-a + 7 / (a - 5)", "a"), (5,), index) is TOP
    assert abstract_eval(_init("!-(a % 3)", "a"), (-4,), index) == 0


@pytest.mark.parametrize("text, expected", [
    ("nondet() && 0", 0), ("a && 0", 0), ("0 && a", 0),
    ("nondet() || 3", 1), ("-2 || a", 1),
    ("a && 1", TOP), ("1 && nondet()", TOP), ("a || 0", TOP),
    ("0 || a", TOP), ("a && nondet()", TOP), ("a * 0", TOP),
])
def test_abstract_eval_definite_operand_decides_and_or(text, expected):
    assert abstract_eval(_init(text, "a"), (TOP,), {"a": 0}) == expected


@pytest.mark.parametrize("guard, expected", [
    ("a == 3", ("a", 3)),
    ("3 == a", ("a", 3)),
    ("a == -3", ("a", -3)),
    ("-3 == a", ("a", -3)),
    ("!(a != 2)", ("a", 2)),
    ("!!(a == 2)", ("a", 2)),
    ("!(a == 2)", None),
    ("a != 2", None),
    ("a == b", None),
    ("-a == 2", None),
    ("a == -(-2)", None),
    ("a + 0 == 2", None),
    ("a == 2 + 0", None),
    ("a < 2", None),
    ("-(a == 2)", None),
    ("a == 1 && b == 2", None),
])
def test_implied_equality(guard, expected):
    assert implied_equality(_init(guard)) == expected


def _median_us(source: str, runs: int = 5):
    """The token and statement counts of `source`, the median microseconds
    per token of scanning, parsing and lowering it, and the median
    microseconds per statement of `dump_cfa` on its automaton; each run
    starts after a full collection."""
    times = []
    for _ in range(runs):
        gc.collect()
        start = time.perf_counter()
        scan = lang._Scan(source)
        scanned = time.perf_counter()
        program = lang._Parser(scan).parse_program("large")
        parsed = time.perf_counter()
        cfa = lowering.lower(program)
        lowered = time.perf_counter()
        dump_cfa(cfa)
        times.append((scanned - start, parsed - scanned, lowered - parsed,
                      time.perf_counter() - lowered))
    tokens, statements = len(scan.texts), len(cfa.edges)
    *front, dump = [statistics.median(layer) * 1e6 for layer in zip(*times)]
    return tokens, statements, [us / tokens for us in front], \
        dump / statements


if __name__ == "__main__":
    print("front end of a wide program: microseconds per token,"
          " and per statement for the dump")
    print("blocks   tokens  scan us  parser us  lowering us  statements"
          "  dump us")
    for blocks in (150, 300, 600, 1200):
        tokens, statements, (scan_us, parser_us, lowering_us), dump_us = \
            _median_us(large_source(blocks))
        print(f"{blocks:6} {tokens:8} {scan_us:8.3f} {parser_us:10.3f}"
              f" {lowering_us:12.3f} {statements:11} {dump_us:8.3f}")
