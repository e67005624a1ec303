"""Shared fixtures: program corpus paths and loading helpers."""

from __future__ import annotations

import random
from pathlib import Path

from vericov import Cfa, source_to_cfa

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"

# Programs small enough for the brute-force oracle: every feasible
# terminating execution has at most 200 statements and there are at most
# 200 of them over the nondet domain {-2..2}.
ORACLE_CORPUS = [
    "tinyloop_bug.c",
    "loop_b10.c",
    "deadbranch.c",
    "deadcode_nested.c",
    "branches_nondet.c",
    "eq_strengthen.c",
    "loop_concrete.c",
    "loop_nondet_bounded.c",
    "assert_nondet.c",
    "bug_simple.c",
    "bug_deep.c",
    "skip_stmts.c",
    "early_return.c",
    "dead_after_return.c",
    "nested_logic.c",
    "nested_division.c",
    "div_unguarded.c",
    "unary_ops.c",
    "relational_chain.c",
    "chain_ifs.c",
    "mod_branch.c",
    "two_loops.c",
]

# Everything, including programs whose execution set is unbounded.
ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.c"))


def fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text()


def fixture_cfa(name: str) -> Cfa:
    return source_to_cfa(fixture_source(name), name=Path(name).stem)


def golden(name: str) -> str:
    return (GOLDENS / name).read_text()


def mutated_source(rng: random.Random, source: str) -> str:
    """`source` after one to four seeded edits: a deletion, an insertion,
    a duplicated run or a cut of the rest."""
    chars = list(source)
    for _ in range(rng.randint(1, 4)):
        if not chars:  # an earlier edit deleted everything
            break
        i = rng.randrange(len(chars))
        action = rng.randrange(4)
        if action == 0:
            del chars[i]
        elif action == 1:
            chars.insert(i, rng.choice("(){};=+-!&|/*x1²١@#\n"))
        elif action == 2:
            chars[i:i] = chars[i:i + rng.randint(1, 12)]
        else:
            del chars[i:]
    return "".join(chars)
