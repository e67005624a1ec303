"""Seeded program generators, one family per workload.

Each generator keeps the shape of its programs fixed and draws only
constants and loop bounds from the seed, chosen so that every seed costs
vericov the same work: the run-to-run spread the benchmark measures is then
the machine's, not the generator's.
"""

from __future__ import annotations

import random
from typing import List

from model import Assert, Assign, Decl, If, Program, Return, While

# Witness domain handed to vericov as --nondet-min/--nondet-max.  Every
# constant of the branch-coverage guards lies inside it.
DOMAIN_MIN = -2
DOMAIN_MAX = 2


def _lit(v: int) -> tuple:
    return ("n", v)


def _var(name: str) -> tuple:
    return ("v", name)


def _bin(op: str, lhs: tuple, rhs: tuple) -> tuple:
    return ("b", op, lhs, rhs)


def spin(rng: random.Random, name: str, live_vars: int) -> Program:
    """README quick-start shape: live nondet() variables beside a loop too
    long to unroll, then guarded updates and an assertion that holds."""
    body: List = []
    names = [f"n{j}" for j in range(live_vars)]
    for v in names:
        body.append(Decl(v, ("nd",)))
    body.append(Decl("i", _lit(0)))
    bound = 1_000_000 + rng.randrange(1000)
    body.append(While(_bin("<", _var("i"), _lit(bound)),
                      [Assign("i", _bin("+", _var("i"), _lit(1)))]))
    for v in names:
        c = rng.randint(DOMAIN_MIN, DOMAIN_MAX)
        body.append(If(_bin("==", _var(v), _lit(c)),
                       [Assign(v, _lit(c + 1))]))
    body.append(Assert(_bin(">=", _var("i"), _lit(bound))))
    body.append(Return())
    return Program(name, body).number()


def long_loop(rng: random.Random, name: str) -> Program:
    """bigloop shape: one concrete counting loop, no nondet()."""
    bound = 1_000_000 + rng.randrange(1000)
    step = rng.randint(1, 9)
    body = [
        Decl("i", _lit(0)),
        Decl("s", _lit(rng.randint(0, 99))),
        While(_bin("<", _var("i"), _lit(bound)),
              [Assign("i", _bin("+", _var("i"), _lit(1))),
               Assign("s", _bin("+", _var("s"), _lit(step)))]),
        Assert(_bin(">=", _var("s"), _lit(0))),
        Return(),
    ]
    return Program(name, body).number()


# Guard kinds of a branch chain, by position.  "==" compares the
# position's fresh variable with a seeded constant: each side keeps the same
# number of witnesses in the domain whatever the constant, and so vericov's
# witness search does the same work for every seed.  "never" makes the
# then-side infeasible, "always" the else-side.
BRANCH_KINDS = ("==", "==", "never", "==", "always", "==")


def branch_chain(rng: random.Random, name: str,
                 kinds=BRANCH_KINDS) -> Program:
    """Independent branches, each guarded on its own fresh nondet()."""
    body: List = [Decl("r", _lit(0))]
    for j, kind in enumerate(kinds):
        v = f"a{j}"
        body.append(Decl(v, ("nd",)))
        square = _bin("*", _var(v), _var(v))
        if kind == "never":
            guard = _bin("<", square, _lit(0))
        elif kind == "always":
            guard = _bin(">=", square, _lit(0))
        else:
            # Non-negative: vericov strengthens `v == c` only when c is a
            # plain literal, and a negative constant parses as unary minus.
            guard = _bin(kind, _var(v), _lit(rng.randint(0, DOMAIN_MAX)))
        body.append(If(guard, [Assign("r", _bin("+", _var("r"), _lit(1)))],
                       then_feasible=kind != "never",
                       else_feasible=kind != "always"))
    body.append(Assert(_bin(">=", _var("r"), _lit(0))))
    body.append(Return())
    return Program(name, body).number()


def large(rng: random.Random, name: str, blocks: int) -> Program:
    """Thousands of declarations, branches and short concrete loops.

    A closing section sums every block's variable, so all of them stay
    live to the end and the liveness analysis carries large sets.
    """
    body: List = [Decl("acc", _lit(0))]
    for b in range(blocks):
        x, j = f"x{b}", f"j{b}"
        body += [
            Decl(x, _lit(rng.randint(-50, 50))),
            If(_bin("<", _var(x), _lit(rng.randint(-50, 50))),
               [Assign(x, _bin("+", _var(x), _lit(rng.randint(1, 9))))],
               [Assign(x, _bin("-", _var(x), _lit(rng.randint(1, 9))))]),
            Decl(j, _lit(0)),
            While(_bin("<", _var(j), _lit(2)),
                  [Assign(j, _bin("+", _var(j), _lit(1)))]),
        ]
    for b in range(blocks):
        body.append(Assign("acc", _bin("+", _var("acc"), _var(f"x{b}"))))
    body.append(Assert(_bin("==", _var("acc"), _var("acc"))))
    body.append(Return())
    return Program(name, body).number()


def deep_expression(name: str, terms: int) -> Program:
    """A flat `x + x + ... + x` initializer; independent of any seed."""
    chain = " + ".join(["x"] * terms)
    return Program(name, [Decl("x", _lit(1)), Decl("y", ("raw", chain)),
                          Return()]).number()
