"""Assumption automata: stepping, accepted languages, text format, alphabet
checks."""

from __future__ import annotations

import pytest

from vericov import (FALSE_STATE, TRUE_STATE, check_alphabet, parse_aa,
                     serialize_aa, statement_ids, step)
from vericov.automaton import (AssumptionAutomaton, FormatError,
                               StatementIdMismatch, UnknownState)

from conftest import fixture_cfa, golden
from oracle import psi_holds


def _two_state() -> AssumptionAutomaton:
    aa = AssumptionAutomaton(name="two", initial="q0")
    aa.add_state("q0", 0)
    aa.add_state("q1", 2)
    aa.add_transition("q0", 0, "q1")
    aa.add_transition("q1", 1, TRUE_STATE)
    aa.add_transition("q1", 2, FALSE_STATE)
    return aa


# Stepping --------------------------------------------------------------------


def test_step_follows_declared_transition():
    aa = _two_state()
    assert step(aa, "q0", 0) == "q1"


def test_step_unmatched_goes_to_false():
    aa = _two_state()
    assert step(aa, "q0", 7) == FALSE_STATE


def test_step_sinks_absorb():
    aa = _two_state()
    assert step(aa, FALSE_STATE, 0) == FALSE_STATE
    assert step(aa, TRUE_STATE, 0) == TRUE_STATE


def test_step_unknown_state_raises():
    with pytest.raises(UnknownState):
        step(_two_state(), "nope", 0)


def test_sinks_cannot_be_declared_or_redeclared():
    aa = _two_state()
    with pytest.raises(ValueError):
        aa.add_state(FALSE_STATE, 0)
    with pytest.raises(ValueError):
        aa.add_state("q0", 5)


def test_duplicate_transition_rejected():
    aa = _two_state()
    with pytest.raises(ValueError, match="duplicate transition from q0 on 0"):
        aa.add_transition("q0", 0, FALSE_STATE)


def test_a_transition_from_an_undeclared_state_is_refused():
    # Serialization writes a state's transitions in its STATE block, so
    # one from a state without a block would be dropped from the text.
    aa = _two_state()
    with pytest.raises(ValueError, match="transition source q9 never"):
        aa.add_transition("q9", 0, "q1")
    with pytest.raises(ValueError, match="never declared"):
        aa.add_transition(TRUE_STATE, 0, "q1")
    assert ("q9", 0) not in aa.transitions


def test_serialization_refuses_what_the_parser_would():
    # A target declared after its transition is accepted, one never
    # declared is not: parse_aa would refuse the text serialize_aa wrote.
    aa = _two_state()
    aa.add_transition("q0", 3, "q2")
    aa.add_state("q2", 3)
    assert parse_aa(serialize_aa(aa)) == aa
    aa.add_transition("q0", 4, "ghost")
    with pytest.raises(ValueError, match="'ghost' never declared"):
        serialize_aa(aa)
    del aa.transitions[("q0", 4)]
    aa.initial = "nowhere"
    with pytest.raises(ValueError, match="'nowhere' never declared"):
        serialize_aa(aa)
    # The transition table is open to writes that bypass add_transition.
    aa.initial = "q0"
    aa.transitions[("q9", 0)] = "q1"
    with pytest.raises(ValueError, match="transition source 'q9' never"):
        serialize_aa(aa)


@pytest.mark.parametrize("name, state", [("a b", "q0"), ("", "q0"),
                                         ("two", "q r")])
def test_serialization_refuses_a_name_that_is_not_one_token(name, state):
    # parse_aa splits each line at whitespace, so it would refuse the
    # AUTOMATON or STATE line, or read another name from it.
    aa = AssumptionAutomaton(name=name, initial=state)
    aa.add_state(state, 0)
    bad = state if name == "two" else name
    with pytest.raises(ValueError, match=f"^name {bad!r} is not one token$"):
        serialize_aa(aa)


# Accepted languages ----------------------------------------------------------


def test_unroll5_accepts_up_to_four_iterations():
    aa = parse_aa(golden("unroll5.aa"))
    for iterations in range(5):
        path = (0,) + (2,) * iterations + (1, 3)
        assert psi_holds(path, aa) is True, iterations
    assert psi_holds((0,) + (2,) * 5 + (1, 3), aa) is False


# Text format -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["unroll5.aa", "bigloop_partial.aa",
                                  "trivial_true.aa"])
def test_golden_round_trip_identity(name):
    text = golden(name)
    assert serialize_aa(parse_aa(text)) == text


def test_unroll5_has_six_nonsink_states():
    aa = parse_aa(golden("unroll5.aa"))
    assert len(aa.states) == 6


def test_commented_file_parses_to_canonical_form():
    aa = parse_aa(golden("commented.aa"))
    assert serialize_aa(aa) == ("AUTOMATON commented\n"
                                "INITIAL s0\n"
                                "STATE s0 @L0\n"
                                "  ON 0 -> s1\n"
                                "STATE s1 @L2\n"
                                "  ON 1 -> __TRUE\n"
                                "  ON 2 -> __FALSE\n"
                                "END\n")


def test_serialize_sorts_transitions_by_statement_id():
    aa = AssumptionAutomaton(name="t", initial="a")
    aa.add_state("a", 0)
    aa.add_transition("a", 5, FALSE_STATE)
    aa.add_transition("a", 1, TRUE_STATE)
    assert serialize_aa(aa) == ("AUTOMATON t\nINITIAL a\nSTATE a @L0\n"
                                "  ON 1 -> __TRUE\n  ON 5 -> __FALSE\nEND\n")


def test_initial_false_only_automaton():
    aa = parse_aa("AUTOMATON empty\nINITIAL __FALSE\nEND\n")
    assert psi_holds([], aa) is False
    assert serialize_aa(aa) == "AUTOMATON empty\nINITIAL __FALSE\nEND\n"


@pytest.mark.parametrize("text, fragment", [
    ("INITIAL q0\nEND\n", "AUTOMATON"),
    ("AUTOMATON a\nAUTOMATON b\nINITIAL __TRUE\nEND\n", "duplicate"),
    ("AUTOMATON a\nSTATE q0 @L0\nEND\n", "STATE before INITIAL"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n", "missing END"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\nEND\nleftover\n", "after END"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 L0\nEND\n", "expected: STATE"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @Lx\nEND\n", "bad location"),
    ("AUTOMATON a\nINITIAL q0\nON 0 -> q0\nEND\n", "outside a STATE"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n  ON x -> q0\nEND\n",
     "bad statement id"),
    ("AUTOMATON a\nINITIAL q0\nSTATE __FALSE @L0\nEND\n", "reserved"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\nSTATE q0 @L1\nEND\n", "twice"),
    ("AUTOMATON a\nINITIAL nowhere\nEND\n", "never declared"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n  ON 0 -> ghost\nEND\n",
     "never declared"),
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n  WAT\nEND\n", "unrecognized"),
])
def test_format_errors(text, fragment):
    with pytest.raises(FormatError) as info:
        parse_aa(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize("text, line", [
    ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n  ON 0 -> q0\n"
     "  ON 1 -> q7\n  ON 2 -> q7\nEND\n", 5),
    ("AUTOMATON a\n# comment\n\nINITIAL q9\nSTATE q0 @L0\nEND\n", 4),
])
def test_undeclared_state_error_names_its_first_line(text, line):
    with pytest.raises(FormatError) as info:
        parse_aa(text)
    assert info.value.line == line
    assert "never declared" in str(info.value)


def test_parse_duplicate_on_line_raises():
    text = ("AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n"
            "  ON 0 -> __TRUE\n  ON 0 -> __FALSE\nEND\n")
    with pytest.raises(FormatError) as info:
        parse_aa(text)
    assert info.value.line == 5
    assert "duplicate transition from q0 on 0" in str(info.value)


# Alphabet checks -------------------------------------------------------------


def test_check_alphabet_accepts_matching_ids():
    aa = parse_aa(golden("unroll5.aa"))
    cfa = fixture_cfa("loop_nondet_empty.c")
    check_alphabet(aa, statement_ids(cfa))  # must not raise


def test_check_alphabet_rejects_foreign_ids():
    aa = parse_aa(golden("unroll5.aa"))
    with pytest.raises(StatementIdMismatch):
        check_alphabet(aa, {0, 1})
