"""Statement-coverage metrics for interrupted verification runs.

The package parses a small imperative language, lowers it to a
control-flow automaton, explores it with a budget-limited value analysis
that can stop early and emit an assumption automaton describing the
explored region, and computes how much statement coverage such a partial
run actually achieved: exactly, as a lower bound from generated
executions, or as an upper bound read off the automaton.
"""

from .automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton,
                        FormatError, StatementIdMismatch, check_alphabet,
                        parse_aa, serialize_aa, step)
from .cfa import (ASSERT, ASSIGN, ASSUME, HALT, SKIP, Cfa, Edge, dump_cfa,
                  live_variables, postorder_index, statement_ids)
from .cli import RunConfig, run
from .coverage import (CoverageReport, exact_coverage, over_approx_coverage,
                       under_approx_coverage)
from .explorer import (Budget, Execution, Spec, emit_assumption_automaton,
                       explore, make_strategy)
from .heuristic import compose, reach_fixpoint, score
from .lang import (EvalError, ParseError, Program, UndeclaredVariable,
                   concrete_eval, expr_to_text, parse_program)
from .lowering import lower, source_to_cfa

__version__ = "0.1.0"

__all__ = [
    "ASSERT", "ASSIGN", "ASSUME", "HALT", "SKIP",
    "AssumptionAutomaton", "Budget", "Cfa", "CoverageReport", "Edge",
    "EvalError", "Execution", "FALSE_STATE", "FormatError", "ParseError",
    "Program", "RunConfig", "Spec", "StatementIdMismatch", "TRUE_STATE",
    "UndeclaredVariable",
    "check_alphabet", "compose", "concrete_eval",
    "dump_cfa", "emit_assumption_automaton", "exact_coverage", "explore",
    "expr_to_text", "live_variables", "lower", "make_strategy",
    "over_approx_coverage", "parse_aa", "parse_program", "postorder_index",
    "reach_fixpoint", "run", "score", "serialize_aa", "source_to_cfa",
    "statement_ids", "step", "under_approx_coverage",
]
