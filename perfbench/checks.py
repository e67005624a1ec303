"""Output checks, computed apart from vericov.

Each check returns a list of problems; an empty list means the answer is
right.  Expected values come from the benchmark's own program model
(`model.py`), its own automaton reader below, or properties the method must
have.  None of them compares against stored vericov output.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import model

FALSE = "__FALSE"
TRUE = "__TRUE"


class Automaton:
    """Just enough of the automaton text format to walk it."""

    def __init__(self, text: str):
        self.initial = FALSE
        self.states: List[str] = []
        self.transitions: Dict[Tuple[str, int], str] = {}
        current = None
        for line in text.splitlines():
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "INITIAL":
                self.initial = parts[1]
            elif parts[0] == "STATE":
                current = parts[1]
                self.states.append(current)
            elif parts[0] == "ON":
                self.transitions[(current, int(parts[1]))] = parts[3]

    def step(self, state: str, sid: int) -> str:
        if state in (FALSE, TRUE):
            return state
        return self.transitions.get((state, sid), FALSE)

    def walk(self, sids: Iterable[int]) -> Set[int]:
        """Statements the walk over `sids` sees before entering FALSE."""
        seen: Set[int] = set()
        state = self.initial
        for sid in sids:
            if state == FALSE:
                break
            state = self.step(state, sid)
            if state != FALSE:
                seen.add(sid)
        return seen


def _ids(report: Dict) -> Set[int]:
    return set(report["covered_ids"])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_interrupted(report: Dict, budget: int, fanout: int) -> List[str]:
    """Verdict unknown, no counterexample, stopped within one expansion."""
    problems = []
    if report["verdict"] != "unknown":
        problems.append(f"verdict {report['verdict']!r}, expected 'unknown'")
    if report["counterexamples"]:
        problems.append(f"{len(report['counterexamples'])} counterexamples")
    created = report["nodes_created"]
    if not budget <= created <= budget + fanout - 1:
        problems.append(f"{created} nodes created under a budget of {budget}")
    return problems


def verify_safe(report: Dict) -> List[str]:
    if report["verdict"] != "safe" or report["counterexamples"]:
        return [f"completed verify says {report['verdict']!r}, "
                f"expected 'safe'"]
    return []


def roundtrip(text: str, reserialized: str) -> List[str]:
    if text != reserialized:
        return ["serialize_aa(parse_aa(text)) differs from the written text"]
    return []


def falls_before_loop_exit(aa: Automaton, program: model.Program,
                           loop: model.While) -> List[str]:
    """Walk the concrete run; FALSE must come before the loop exits."""
    state = aa.initial
    for sid in model.run(program, itertools.repeat(0)):
        if state == FALSE:
            return []
        if sid == loop.exit_sid:
            return ["the automaton walk reached the loop exit"]
        state = aa.step(state, sid)
    return ["the automaton walk never fell into __FALSE"]


def alphabet_within(aa: Automaton, count: int) -> List[str]:
    foreign = sorted({sid for (_, sid) in aa.transitions
                      if not 0 <= sid < count})
    return [f"automaton uses unknown statement ids {foreign[:5]}"] \
        if foreign else []


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def score_monotone(aa: Automaton, scores: Dict[str, int]) -> List[str]:
    """Reach sets only shrink along product edges, so scores never rise."""
    problems = []
    if set(scores) != set(aa.states):
        problems.append("score lists other states than the automaton")
        return problems
    for (src, sid), tgt in aa.transitions.items():
        if tgt in (FALSE, TRUE):
            continue
        if scores[tgt] > scores[src]:
            problems.append(f"score rises from {src} ({scores[src]}) to "
                            f"{tgt} ({scores[tgt]}) on {sid}")
            break
    return problems


# ---------------------------------------------------------------------------
# cfa-dump
# ---------------------------------------------------------------------------

_EDGE = re.compile(r"^L\d+ -\[(\d+):")


def dump_statements(dump: str, count: int) -> List[str]:
    """Exactly `count` statement lines with ids 0..count-1."""
    ids = [int(m.group(1)) for m in map(_EDGE.match, dump.splitlines()) if m]
    if sorted(ids) != list(range(count)):
        return [f"cfa-dump lists {len(ids)} statement ids, expected the "
                f"{count} ids 0..{count - 1}"]
    return []


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def branch_paths(program: model.Program) -> List[List[int]]:
    """Statement sequences of every feasible control path.

    The guards of a branch chain are independent, so a path is feasible
    exactly when each `if` takes a side the generator marked feasible.
    """
    conds = [s for s in program.body if isinstance(s, model.If)]
    paths = []
    for sides in itertools.product((True, False), repeat=len(conds)):
        choice = dict(zip(map(id, conds), sides))
        if any(not (c.then_feasible if choice[id(c)] else c.else_feasible)
               for c in conds):
            continue
        paths.append(list(model.run(program, itertools.repeat(0),
                                    decide=lambda c: choice[id(c)])))
    return paths


def expected_exact(paths: Sequence[Sequence[int]], aa: Automaton) -> Set[int]:
    covered: Set[int] = set()
    for path in paths:
        covered |= aa.walk(path)
    return covered


def exact_matches(report: Dict, expected: Set[int]) -> List[str]:
    problems = []
    got = _ids(report)
    if got != expected:
        problems.append(f"cover-exact: missing {sorted(expected - got)}, "
                        f"extra {sorted(got - expected)}")
    if report["exhausted"]:
        problems.append("cover-exact reports exhausted")
    return problems


def sandwich(under: Dict, exact: Dict, over: Dict) -> List[str]:
    problems = []
    if not _ids(under) <= _ids(exact):
        problems.append(f"under has {sorted(_ids(under) - _ids(exact))} "
                        f"outside exact")
    if not _ids(exact) <= _ids(over):
        problems.append(f"exact has {sorted(_ids(exact) - _ids(over))} "
                        f"outside over")
    return problems


def witnesses(report: Dict, program: model.Program,
              aa: Automaton) -> List[str]:
    """Replay every reported execution with the benchmark's interpreter."""
    problems = []
    for entry in report["per_execution"]:
        values = [v for _, v in sorted((int(k), v)
                                       for k, v in entry["witness"].items())]
        try:
            taken = list(model.run(program, values))
        except model.Violation as exc:
            problems.append(f"witness {values} fails the assert {exc}")
            continue
        except IndexError:
            problems.append(f"witness {values} has too few nondet values")
            continue
        if taken != entry["statements"]:
            problems.append(f"witness {values} does not follow its path")
            continue
        walked = aa.walk(taken)
        stray = set(entry["newly_covered"]) - walked
        if stray:
            problems.append(f"newly covered {sorted(stray)} lie outside the"
                            f" walked set")
    return problems


def covered_empty(report: Dict) -> List[str]:
    if report["covered_ids"]:
        return [f"cover on an automaton that fails inside the loop covers "
                f"{report['covered_ids']}"]
    return []
