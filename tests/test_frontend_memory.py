"""The memory the front end keeps per statement, and the pairs it shares.

`source_to_cfa` reads a 600-block program, 6,003 statements, while
`tracemalloc` traces allocations; the traced memory that the returned
automaton still holds afterwards, divided by its statements, is what one
statement costs.  The program has the shape of the benchmark's
`frontend-large` program: per block a declaration, an `if`/`else`, and a
two-iteration loop, then a sum over every block's variable.  Run it as a
script to print that figure:

    PYTHONPATH=src python tests/test_frontend_memory.py
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from vericov import parse_program, source_to_cfa

BLOCKS = 600
SEED = 1
# Nine per block, one sum line per block, the assert and the return.
STATEMENTS = 10 * BLOCKS + 3
# One `Edge` record per statement reads about 230 B on Python 3.11.  A
# source line kept per edge read about 260 B, since most line numbers are
# ints above 256 that each edge keeps alive; a second record per statement
# (a separate statement payload) read about 300 B.  Both fail this bound.
MAX_BYTES_PER_STATEMENT = 252


def _constant(value: int) -> str:
    return str(value) if value >= 0 else f"({value})"


def large_source(blocks: int = BLOCKS, seed: int = SEED) -> str:
    rng = random.Random(seed)
    lines = ["int nondet();", "", "int main() {", "  int acc = 0;"]
    for b in range(blocks):
        x, j = f"x{b}", f"j{b}"
        lines += [
            f"  int {x} = {_constant(rng.randint(-50, 50))};",
            f"  if ({x} < {_constant(rng.randint(-50, 50))}) {{",
            f"    {x} = {x} + {rng.randint(1, 9)};",
            "  } else {",
            f"    {x} = {x} - {rng.randint(1, 9)};",
            "  }",
            f"  int {j} = 0;",
            f"  while ({j} < 2) {{",
            f"    {j} = {j} + 1;",
            "  }",
        ]
    lines += [f"  acc = acc + x{b};" for b in range(blocks)]
    lines += ["  assert(acc == acc);", "  return 0;", "}"]
    return "\n".join(lines) + "\n"


def kept_bytes_per_statement() -> float:
    source = large_source()
    # The first call's garbage refills the interpreter's free lists, and a
    # later call takes small tuples and other objects from them, whose
    # blocks were allocated untraced.  A full collection empties those
    # lists, so one runs just before tracing starts, and the collector
    # stays off from there on: whether another fell inside the measured
    # call would depend on the allocations of earlier tests.
    collecting = gc.isenabled()
    gc.disable()
    tracing = tracemalloc.is_tracing()
    try:
        source_to_cfa(source, name="large")  # first-call work
        gc.collect()
        if not tracing:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        cfa = source_to_cfa(source, name="large")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
        if collecting:
            gc.enable()
    assert len(cfa.edges) == STATEMENTS
    return kept / len(cfa.edges)


def test_source_to_cfa_keeps_below_the_bytes_per_statement_bound():
    assert kept_bytes_per_statement() <= MAX_BYTES_PER_STATEMENT


def test_a_parse_shares_one_pair_per_operand_and_operator():
    program = parse_program("int main() {\n  int x = 1;\n  x = x + 1;\n"
                            "  if (x + 1 < 2) { x++; }\n  return x;\n}\n")
    decl, assign, branch, _ = program.body
    [increment] = branch.then
    var, one, plus = assign.expr
    assert (var, one, plus) == (("var", "x"), ("lit", 1), ("binary", "+"))
    for code in (branch.cond[:3], increment.expr):
        assert all(a is b for a, b in zip(code, (var, one, plus)))
    assert decl.expr[0] is one
    # Pairs are shared within one parse only.
    again = parse_program("int main() { int x = 1; x = x; }")
    assert again.body[0].expr[0] is not one
    assert again.body[1].expr[0] is not var


if __name__ == "__main__":
    print(f"{kept_bytes_per_statement():.1f} B/statement"
          f" (bound {MAX_BYTES_PER_STATEMENT}, {STATEMENTS} statements)")
