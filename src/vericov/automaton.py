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
    automaton the text cannot carry: an automaton name or declared state
    name that is not one whitespace-free token, which `parse_aa` would
    split differently, an initial state or transition target that is
    neither declared nor a sink, which it would refuse, or a transition
    from an undeclared state, which no STATE block would hold."""
    location_of = aa.location_of
    names = [aa.name, *location_of]
    # Joined and split again, the names come back unchanged exactly when
    # each is one whitespace-free token.
    if " ".join(names).split() != names:
        for name in names:
            if name.split() != [name]:
                raise ValueError(f"name {name!r} is not one token")
    ons: Dict[str, List[Tuple[int, str]]] = {state: [] for state in location_of}
    stray = False
    try:
        for (src, sid), tgt in aa.transitions.items():
            ons[src].append((sid, tgt))
    except KeyError:  # refused below, after the targets
        stray = True
    named = set(aa.transitions.values())
    named.add(aa.initial)
    undeclared = named.difference(location_of, _SINKS)
    if undeclared:
        raise ValueError(f"state {min(undeclared)!r} never declared")
    if stray:
        undeclared = {src for src, _ in aa.transitions}.difference(location_of)
        raise ValueError(f"transition source {min(undeclared)!r} never"
                         " declared")
    lines = [f"AUTOMATON {aa.name}", f"INITIAL {aa.initial}"]
    append = lines.append
    for state, location in location_of.items():
        append(f"STATE {state} @L{location}")
        group = ons[state]
        if len(group) > 1:
            group.sort()
        for sid, tgt in group:
            append(f"  ON {sid} -> {tgt}")
    append("END")
    return "\n".join(lines) + "\n"


def parse_aa(text: str) -> AssumptionAutomaton:
    """The automaton a text in the format above describes.  FormatError,
    carrying the line at fault, for a text that breaks a rule: a line is
    blank, a `#` comment or a directive; AUTOMATON comes first and once,
    with one name, then INITIAL once, with one state; a STATE line reads
    `STATE <name> @L<integer>` and declares a new name that is not a
    sink; an ON line reads `ON <integer> -> <state>`, sits in a STATE
    block and is the only one from its state on its statement ID; END
    closes the text, after which only blank and comment lines may
    follow.  Every state the initial line or an ON line names is a sink
    or declared somewhere in the text; an undeclared one is reported at
    the first line naming it.

    Each distinct statement-ID text and each distinct `@L` text is
    converted once.  The two have caches of their own: one shared cache
    would take `@L5`, once seen on a STATE line, as statement 5 on an ON
    line.  A duplicate ON line is found by the transition table not
    growing, not by `setdefault` returning another object: `str.split`
    returns CPython's cached one-character strings, so a repeated
    one-character target is the very object already stored."""
    aa = AssumptionAutomaton(name="", initial="")
    location_of, transitions = aa.location_of, aa.transitions
    ids: Dict[str, int] = {}
    locations: Dict[str, int] = {}
    current: str = ""
    initial_line = 0
    lines = enumerate(map(str.split, text.splitlines()), start=1)
    # ON and STATE lines come first: canonical files are almost all ON
    # and STATE lines.
    for lineno, parts in lines:
        if not parts:
            continue
        head = parts[0]
        if head == "ON":
            if not current:
                raise FormatError(lineno, "ON outside a STATE block")
            if len(parts) != 4 or parts[2] != "->":
                raise FormatError(lineno, "expected: ON <stmt-id> -> <state>")
            sid = ids.get(parts[1])
            if sid is None:
                try:
                    sid = ids[parts[1]] = int(parts[1])
                except ValueError:
                    raise FormatError(lineno, f"bad statement id {parts[1]!r}") from None
            size = len(transitions)
            transitions[current, sid] = parts[3]
            if len(transitions) == size:
                raise FormatError(lineno, f"duplicate transition from "
                                          f"{current} on {sid}")
        elif head == "STATE":
            if not initial_line:
                raise FormatError(lineno, "STATE before INITIAL")
            if len(parts) != 3:
                raise FormatError(lineno, "expected: STATE <name> @L<node>")
            location = locations.get(parts[2])
            if location is None:  # a cached text passed this check
                if not parts[2].startswith("@L"):
                    raise FormatError(lineno, "expected: STATE <name> @L<node>")
                try:
                    location = locations[parts[2]] = int(parts[2][2:])
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
    for lineno, parts in lines:  # after END: blank and comment lines only
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
