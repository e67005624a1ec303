"""Statement-coverage metrics for interrupted verification runs.

The package parses a small imperative language, lowers it to a
control-flow automaton, explores it with a budget-limited value analysis
that can stop early and emit an assumption automaton describing the
explored region, and computes how much statement coverage such a partial
run actually achieved: exactly, as a lower bound from generated
executions, or as an upper bound read off the automaton.
"""

from .automaton import (FALSE_STATE, TRUE_STATE, AssumptionAutomaton,
                        DuplicateTransition, FormatError,
                        StatementIdMismatch, UnknownState, check_alphabet,
                        parse_aa, psi, serialize_aa, step)
from .cfa import (ASSERT, ASSIGN, ASSUME, HALT, SKIP, Cfa, Edge, Statement,
                  dump_cfa, live_variables, postorder_index, statement_ids,
                  statements)
from .cli import RunConfig, run
from .coverage import (CoverageReport, exact_coverage,
                       exercised_within_analysis, over_approx_coverage,
                       under_approx_coverage)
from .explorer import (ArtNode, ArtStats, Budget, Execution,
                       ExplorationResult, MissingScores, ReplayResult, Spec,
                       TraversalStrategy, emit_assumption_automaton, explore,
                       make_strategy, replay)
from .heuristic import Product, compose, reach_fixpoint, score
from .lang import (EvalError, ParseError, Program, UndeclaredVariable,
                   concrete_eval, expr_to_text, parse_program)
from .lowering import lower, source_to_cfa

__version__ = "0.1.0"

__all__ = [
    "ASSERT", "ASSIGN", "ASSUME", "HALT", "SKIP",
    "ArtNode", "ArtStats", "AssumptionAutomaton", "Budget", "Cfa",
    "CoverageReport", "DuplicateTransition", "Edge", "EvalError",
    "Execution", "ExplorationResult", "FALSE_STATE", "FormatError",
    "MissingScores", "ParseError", "Product", "Program", "ReplayResult",
    "RunConfig", "Spec", "Statement", "StatementIdMismatch", "TRUE_STATE",
    "TraversalStrategy", "UndeclaredVariable", "UnknownState",
    "check_alphabet", "compose", "concrete_eval", "dump_cfa",
    "emit_assumption_automaton", "exact_coverage",
    "exercised_within_analysis", "explore", "expr_to_text",
    "live_variables", "lower", "make_strategy",
    "over_approx_coverage", "parse_aa", "parse_program",
    "postorder_index", "psi", "reach_fixpoint", "replay", "run", "score",
    "serialize_aa", "source_to_cfa", "statement_ids", "statements", "step",
    "under_approx_coverage",
]
