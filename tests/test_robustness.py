"""Generated inputs never make the command line report an internal error.

A seeded generator (stdlib `random`) builds programs and automaton files,
many of them malformed, and drives `cli.main` in-process on each.  Any
exit code but 3 is acceptable here: 0/1 for a program the tool handles,
2 for input it rejects.  Other tests pin what those answers are.
"""

from __future__ import annotations

import random

import pytest

from vericov.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from vericov.lang import MAX_BLOCK_DEPTH

from conftest import FIXTURES, mutated_source

SEED = 7
BINARY_OPS = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
              "&&", "||"]


def _program(*statements: str) -> str:
    return ("int nondet();\nint main() {\n  int x = nondet();\n"
            + "".join(f"  {s}\n" for s in statements) + "  return 0;\n}\n")


def _chain(rng: random.Random, terms: int) -> str:
    parts = ["x"]
    for _ in range(terms - 1):
        parts += [rng.choice(BINARY_OPS), rng.choice(["x", "1", "3"])]
    return " ".join(parts)


def _nested_blocks(depth: int, head: str) -> str:
    """`depth` blocks in all, the body of main included."""
    inner = depth - 1
    return ("int main() {\n  int x = 0;\n" + f"  {head} {{\n" * inner
            + "  x = x + 1;\n" + "  }\n" * inner + "  return 0;\n}\n")


def _programs(rng: random.Random):
    """(name, source, exit code of `cfa-dump` or None when unknown)."""
    yield "chain-plus-3000", _program(
        "int y = " + " + ".join(["x"] * 3000) + ";"), EXIT_OK
    for terms in (3000, 4500):
        chain = _chain(rng, terms)
        yield f"chain-{terms}", _program(f"int y = {chain};",
                                         f"if ({chain}) {{ x = 1; }}",
                                         f"assert({chain} || 1);"), EXIT_OK
    yield "parens-400", _program(
        "int y = " + "(" * 400 + "x" + ")" * 400 + ";"), EXIT_OK
    yield "not-400", _program("int y = " + "!" * 400 + "x;"), EXIT_OK
    yield "minus-400", _program("int y = " + "- " * 400 + "x;"), EXIT_OK
    prefix = [rng.choice(["!", "-", "("]) for _ in range(400)]
    yield "prefix-mix-400", _program(
        "int y = " + " ".join(prefix) + " x" + ")" * prefix.count("(")
        + ";"), EXIT_OK
    yield "parens-unclosed", _program(
        "int y = " + "(" * 400 + "x" + ")" * 399 + ";"), EXIT_USAGE
    for head in ("if (x)", "while (x)", "for (;x;)"):
        for depth in (MAX_BLOCK_DEPTH, MAX_BLOCK_DEPTH + 1, 400):
            yield (f"nested-{head[:head.index(' ')]}-{depth}",
                   _nested_blocks(depth, head),
                   EXIT_OK if depth <= MAX_BLOCK_DEPTH else EXIT_USAGE)
    for digits in (4000, 4300, 4301, 5000, 20000):
        yield f"literal-{digits}", _program(
            f"int y = {'7' * digits};", "assert(y > 0);"), \
            EXIT_OK if digits <= 4300 else EXIT_USAGE
    yield "literal-product", _program(
        f"int y = {'9' * 4000} * {'9' * 4000};", "assert(y != 0);"), EXIT_OK
    bases = [(FIXTURES / name).read_text()
             for name in ("nested_logic.c", "bigloop.c", "chain_ifs.c")]
    for i in range(40):
        yield f"mutated-{i}", mutated_source(rng, rng.choice(bases)), None


def _mutated_automaton(rng: random.Random, text: str) -> str:
    """Up to three edits of an automaton's INITIAL, STATE and ON lines."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        body = [i for i, line in enumerate(lines)
                if line.split()[0] in ("INITIAL", "STATE", "ON")]
        i, j = rng.choice(body), rng.choice(body)
        parts = lines[i].split()
        action = rng.choice(["duplicate", "undeclared", "foreign", "reorder",
                             "delete", "redeclare"])
        if action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "undeclared":  # a target or initial state
            parts[-1] = "ghost"
        elif action == "foreign" and parts[0] == "ON":  # a statement id
            parts[1] = str(rng.choice([-1, 999, 10 ** 30]))
        elif action == "foreign" and parts[0] == "STATE":  # a location
            parts[2] = "@L" + str(rng.choice([-3, 999, 10 ** 30]))
        elif action == "reorder":
            lines[i], lines[j] = lines[j], lines[i]
        elif action == "delete":
            del lines[i]
        elif action == "redeclare":
            lines.insert(i, rng.choice([line for line in lines
                                        if line.startswith("STATE")]))
        if action in ("undeclared", "foreign"):
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _run(argv, capsys) -> int:
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc != EXIT_INTERNAL, (argv, captured.err)
    return rc


def test_generated_programs_never_exit_internal(tmp_path, capsys):
    rng = random.Random(SEED)
    for name, source, dump_exit in _programs(rng):
        path = tmp_path / f"{name}.c"
        path.write_text(source)
        aa = str(tmp_path / "out.aa")
        rc = _run(["cfa-dump", str(path)], capsys)
        assert dump_exit in (None, rc), name
        _run(["verify", str(path), "--max-nodes", "40", "--aa-out", aa],
             capsys)
    raw = tmp_path / "latin1.c"
    raw.write_bytes(b"int main() { int x = 1; } /* \xe9 */\n")
    assert _run(["cfa-dump", str(raw)], capsys) == EXIT_USAGE


def test_generated_automata_never_exit_internal(tmp_path, capsys):
    rng = random.Random(SEED)
    programs = [str(FIXTURES / name)
                for name in ("nested_logic.c", "loop_b10.c", "chain_ifs.c")]
    commands = [["cover-exact"], ["cover-under", "--strategy", "bfs"],
                ["cover-under", "--strategy", "dfs-postorder+score"],
                ["score"]]
    for program in programs:
        aa = tmp_path / "emitted.aa"
        _run(["verify", program, "--max-nodes", "30", "--aa-out", str(aa)],
             capsys)
        text = aa.read_text()
        for i in range(25):
            mutated = tmp_path / f"mutated{i}.aa"
            mutated.write_text(_mutated_automaton(rng, text))
            command = rng.choice(commands)
            _run([command[0], program, "--aa", str(mutated), *command[1:],
                  *(["--max-nodes", "30"] if command[0] != "score" else [])],
                 capsys)


@pytest.mark.parametrize("source", [
    "int main() { for (;;) ; }",
    "int main() { while (0) ; return 0; }",
    "int nondet(); int main() { while (nondet()) { } return 0; }"],
    ids=["for-ever", "while-false", "while-nondet"])
def test_a_loop_at_the_start_of_main_runs(source, tmp_path, capsys):
    # The loop head is entry, so the back edge enters entry.  These
    # programs hold no assertion: every command answers 0.
    program = tmp_path / "lead.c"
    program.write_text(source)
    path, aa = str(program), str(tmp_path / "lead.aa")
    assert _run(["cfa-dump", path], capsys) == EXIT_OK
    assert _run(["verify", path, "--max-nodes", "50", "--aa-out", aa],
                capsys) == EXIT_OK
    for command in ("score", "cover-exact", "cover-under"):
        assert _run([command, path, "--aa", aa], capsys) == EXIT_OK


@pytest.mark.parametrize("command", ["cfa-dump", "verify"])
def test_long_chain_runs(command, tmp_path, capsys):
    path = tmp_path / "deep.c"
    path.write_text(_program("int y = " + " + ".join(["x"] * 3000) + ";"))
    argv = [command, str(path)]
    if command == "verify":
        argv += ["--max-nodes", "50", "--aa-out", str(tmp_path / "deep.aa")]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    if command == "cfa-dump":
        assert out.count(" + x") == 2999


@pytest.mark.parametrize("depth, expected", [
    (MAX_BLOCK_DEPTH, EXIT_OK), (MAX_BLOCK_DEPTH + 1, EXIT_USAGE)])
def test_block_nesting_limit(depth, expected, tmp_path, capsys):
    path = tmp_path / "nested.c"
    path.write_text(_nested_blocks(depth, "if (x == 0)"))
    assert main(["verify", str(path), "--max-nodes", "50",
                 "--aa-out", str(tmp_path / "nested.aa")]) == expected
    if expected == EXIT_USAGE:
        # The brace opening level 128 sits on line 129.
        assert capsys.readouterr().err == (
            f"error: {MAX_BLOCK_DEPTH + 2}:15: blocks nested deeper than"
            f" {MAX_BLOCK_DEPTH} levels\n")
