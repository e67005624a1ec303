"""Assumption automata: which statement sequences a prior analysis covered.

An automaton reads statement IDs.  Two reserved absorbing sinks exist:
``__FALSE`` (the walk left the explored state space) and ``__TRUE`` (the
walk entered a fully verified region).  A sequence satisfies the automaton
exactly when its walk never enters FALSE; any transition not declared
falls to FALSE, so unexplored means unverified.

Text format (canonical serialization; `#` starts a comment line):

    AUTOMATON <name>
    INITIAL <state>
    STATE <state> @L<cfa-node>
      ON <stmt-id> -> <state or __FALSE or __TRUE>
    ...
    END

States are declared in first-use order and ON lines are sorted by
statement ID, so serialize(parse(text)) is the identity on canonical
files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

FALSE_STATE = "__FALSE"
TRUE_STATE = "__TRUE"
_SINKS = (FALSE_STATE, TRUE_STATE)


class FormatError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UnknownState(Exception):
    pass


class StatementIdMismatch(Exception):
    """An automaton refers to statement IDs a CFA does not define."""


@dataclass
class AssumptionAutomaton:
    """`location_of` maps each declared state to its CFA node, in
    declaration order; it is the one state table."""

    name: str
    initial: str
    location_of: Dict[str, int] = field(default_factory=dict)
    transitions: Dict[Tuple[str, int], str] = field(default_factory=dict)

    @property
    def states(self) -> List[str]:
        return list(self.location_of)

    def add_state(self, state: str, location: int) -> None:
        if state in _SINKS:
            raise ValueError(f"{state} is reserved")
        if state in self.location_of:
            raise ValueError(f"state {state} declared twice")
        self.location_of[state] = location

    def add_transition(self, state: str, stmt_id: int, target: str) -> None:
        """Add a transition from a declared state.  The target may be
        declared later; `serialize_aa` refuses one that never is."""
        if state not in self.location_of:
            raise ValueError(f"transition source {state} never declared")
        key = (state, stmt_id)
        if key in self.transitions:
            raise ValueError(f"duplicate transition from {state} on {stmt_id}")
        self.transitions[key] = target

    def alphabet(self) -> set:
        return {stmt_id for (_, stmt_id) in self.transitions}


def step(aa: AssumptionAutomaton, state: str, stmt_id: int) -> str:
    """Successor state; unmatched pairs go to FALSE, sinks absorb."""
    if state in _SINKS:
        return state
    if state not in aa.location_of:
        raise UnknownState(state)
    return aa.transitions.get((state, stmt_id), FALSE_STATE)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def serialize_aa(aa: AssumptionAutomaton) -> str:
    """The automaton in the canonical text format.  ValueError for an
    automaton the text cannot carry: an initial state or transition
    target that is neither declared nor a sink, which `parse_aa` would
    refuse, or a transition from an undeclared state, which no STATE
    block would hold."""
    ons: Dict[str, List[Tuple[int, str]]] = {}
    for (src, sid), tgt in aa.transitions.items():
        ons.setdefault(src, []).append((sid, tgt))
    named = set(aa.transitions.values())
    named.add(aa.initial)
    undeclared = named.difference(aa.location_of, _SINKS)
    if undeclared:
        raise ValueError(f"state {min(undeclared)!r} never declared")
    undeclared = set(ons).difference(aa.location_of)
    if undeclared:
        raise ValueError(f"transition source {min(undeclared)!r} never"
                         " declared")
    lines = [f"AUTOMATON {aa.name}", f"INITIAL {aa.initial}"]
    for state, location in aa.location_of.items():
        lines.append(f"STATE {state} @L{location}")
        for sid, tgt in sorted(ons.get(state, ())):
            lines.append(f"  ON {sid} -> {tgt}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_aa(text: str) -> AssumptionAutomaton:
    aa = AssumptionAutomaton(name="", initial="")
    location_of, transitions = aa.location_of, aa.transitions
    current: str = ""
    initial_line = 0
    lines = enumerate(text.splitlines(), start=1)
    # ON and STATE lines come first: canonical files are almost all ON
    # and STATE lines.
    for lineno, raw in lines:
        parts = raw.split()
        if not parts:
            continue
        head = parts[0]
        if head == "ON":
            if not current:
                raise FormatError(lineno, "ON outside a STATE block")
            if len(parts) != 4 or parts[2] != "->":
                raise FormatError(lineno, "expected: ON <stmt-id> -> <state>")
            try:
                key = (current, int(parts[1]))
            except ValueError:
                raise FormatError(lineno, f"bad statement id {parts[1]!r}") from None
            if key in transitions:
                raise FormatError(lineno, f"duplicate transition from "
                                          f"{current} on {key[1]}")
            transitions[key] = parts[3]
        elif head == "STATE":
            if not initial_line:
                raise FormatError(lineno, "STATE before INITIAL")
            if len(parts) != 3 or not parts[2].startswith("@L"):
                raise FormatError(lineno, "expected: STATE <name> @L<node>")
            try:
                location = int(parts[2][2:])
            except ValueError:
                raise FormatError(lineno, f"bad location {parts[2]!r}") from None
            current = parts[1]
            if current in _SINKS:
                raise FormatError(lineno, f"{current} is reserved")
            if current in location_of:
                raise FormatError(lineno, f"state {current} declared twice")
            location_of[current] = location
        elif head[0] == "#":
            continue
        elif head == "AUTOMATON":
            if aa.name:
                raise FormatError(lineno, "duplicate AUTOMATON header")
            if len(parts) != 2:
                raise FormatError(lineno, "AUTOMATON needs exactly one name")
            aa.name = parts[1]
        elif head == "INITIAL":
            if not aa.name:
                raise FormatError(lineno, "INITIAL before AUTOMATON")
            if initial_line:
                raise FormatError(lineno, "duplicate INITIAL")
            if len(parts) != 2:
                raise FormatError(lineno, "INITIAL needs exactly one state")
            aa.initial = parts[1]
            initial_line = lineno
        elif head == "END":
            if not initial_line:
                raise FormatError(lineno, "END before INITIAL")
            break
        else:
            raise FormatError(lineno, f"unrecognized directive {head!r}")
    else:  # no END; one needs an INITIAL, so an AUTOMATON header too
        raise FormatError(1, "missing END" if aa.name else "missing AUTOMATON header")
    for lineno, raw in lines:  # after END: blank and comment lines only
        parts = raw.split()
        if parts and parts[0][0] != "#":
            raise FormatError(lineno, "content after END")
    if aa.initial not in _SINKS and aa.initial not in location_of:
        raise FormatError(initial_line,
                          f"initial state {aa.initial!r} never declared")
    undeclared = set(transitions.values()).difference(location_of, _SINKS)
    if undeclared:
        # Report the first line naming one: the text parsed, so every line
        # whose first word is ON is an accepted ON line.
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if parts and parts[0] == "ON" and parts[3] in undeclared:
                raise FormatError(lineno, f"transition target {parts[3]!r} never declared")
    return aa


def check_alphabet(aa: AssumptionAutomaton, valid_ids: set) -> None:
    """Raise StatementIdMismatch if the automaton mentions foreign IDs."""
    foreign = aa.alphabet() - valid_ids
    if foreign:
        raise StatementIdMismatch(
            f"automaton {aa.name!r} refers to unknown statement ids "
            f"{sorted(foreign)}")
