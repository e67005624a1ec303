"""Frontend: lexing, parsing, scope rules, rendering, concrete evaluation."""

from __future__ import annotations

import pytest

from vericov import lang
from vericov.lang import (Assign, Binary, Decl, EvalError, For, If, IntLit,
                          Nondet, ParseError, Return, Skip, Unary,
                          UndeclaredVariable, Var, While, concrete_eval,
                          expr_to_text, parse_program)

from conftest import fixture_source


def test_minimal_program():
    program = parse_program("int main() { return 0; }")
    assert len(program.body) == 1
    assert isinstance(program.body[0], Return)


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
    assert isinstance(decl_x, Decl) and decl_x.init == IntLit(3)
    assert isinstance(decl_y, Decl) and decl_y.init is None
    assert isinstance(assign, Assign)
    assert assign.expr == Binary("+", Var("x"), IntLit(1))


def test_true_false_are_literals():
    program = parse_program(
        "int main() { int x = true; assert(false); return 0; }")
    assert program.body[0].init == IntLit(1)
    assert program.body[1].cond == IntLit(0)


def test_increment_decrement_sugar():
    program = parse_program("int main() { int i = 0; i++; i--; return 0; }")
    inc, dec = program.body[1], program.body[2]
    assert inc == Assign("i", Binary("+", Var("i"), IntLit(1)), inc.line)
    assert dec == Assign("i", Binary("-", Var("i"), IntLit(1)), dec.line)


def test_precedence_tree():
    program = parse_program(
        "int main() { int x = 1 + 2 * 3 < 7 && 1; return 0; }")
    expr = program.body[0].init
    assert expr == Binary(
        "&&",
        Binary("<", Binary("+", IntLit(1), Binary("*", IntLit(2), IntLit(3))),
               IntLit(7)),
        IntLit(1))


def test_unary_parsing():
    program = parse_program("int main() { int x = -1; int y = !x; return 0; }")
    assert program.body[0].init == Unary("-", IntLit(1))
    assert program.body[1].init == Unary("!", Var("x"))


def test_nondet_call():
    program = parse_program(
        "int nondet();\nint main() { int x = nondet(); return 0; }")
    assert program.body[0].init == Nondet()


def test_if_requires_blocks():
    with pytest.raises(ParseError):
        parse_program("int main() { int x = 1; if (x) x = 2; return 0; }")


def test_loop_body_block_or_semicolon():
    program = parse_program("int main() { while (0); return 0; }")
    loop = program.body[0]
    assert isinstance(loop, While)
    assert len(loop.body) == 1 and isinstance(loop.body[0], Skip)

    program = parse_program("int main() { while (0) { } return 0; }")
    assert program.body[0].body == []


def test_for_loop_with_implicit_declaration():
    program = parse_program(fixture_source("bigloop.c"))
    loop = program.body[0]
    assert isinstance(loop, For)
    assert loop.implicit_decls == ["i"]
    assert isinstance(loop.init, Assign)
    assert loop.cond == Binary("<", Var("i"), IntLit(1000000))
    assert len(loop.body) == 1 and isinstance(loop.body[0], Skip)


def test_for_with_declared_initializer():
    program = parse_program(
        "int main() { for (int i = 0; i < 2; i++) { } return 0; }")
    loop = program.body[0]
    assert isinstance(loop.init, Decl)
    assert loop.implicit_decls == []


def test_statement_level_assignment_to_undeclared_fails():
    with pytest.raises(UndeclaredVariable):
        parse_program("int main() { x = 1; return 0; }")


def test_use_before_declaration_fails():
    with pytest.raises(UndeclaredVariable):
        parse_program("int main() { int y = x; int x = 1; return 0; }")


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
])
def test_expression_rendering(source, expected):
    program = parse_program(
        "int nondet();\n"
        "int main() { int a = 1; int b = 1; int c = 1; "
        f"int r = {source}; return 0; }}")
    assert expr_to_text(program.body[3].init) == expected


def test_rendering_negated_comparison_single_parens():
    # The negated branch guard must render with exactly one paren layer.
    assert expr_to_text(
        Unary("!", Binary("<", Var("i"), IntLit(10)))) == "!(i < 10)"


# Concrete evaluation --------------------------------------------------------


def _eval_text(source: str, env=None, draws=()):
    decls = "".join(f"int {name} = 0; " for name in (env or {}))
    program = parse_program(
        "int nondet();\n"
        f"int main() {{ {decls}int r = {source}; return 0; }}")
    pending = list(draws)
    return concrete_eval(program.body[len(env or {})].init, dict(env or {}),
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
