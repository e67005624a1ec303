"""Statement coverage achieved by an interrupted verification run.

A statement counts as covered when some feasible, assertion-clean,
terminating execution exercises it while the run's assumption automaton
has not yet given up (entered FALSE).  The exact metric is computed by
repeatedly asking the explorer for executions that touch still-uncovered
statements; each round either covers something new or proves the rest
uncoverable.  The explorer hands each execution over with the statements
it exercises, read from its exit node in the exploration tree, so no
execution is walked through the automaton a second time.  Cheaper
one-sided answers are also available: an under-approximation from a
bounded number of generated executions and an over-approximation read off
the automaton–CFA product.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Dict, List, Sequence

from .automaton import FALSE_STATE, AssumptionAutomaton, check_alphabet
from .cfa import Cfa, statement_ids
from .explorer import (Budget, DEFAULT_NONDET_DOMAIN, DFS_POSTORDER, Execution,
                       Spec, UNKNOWN, explore, make_strategy)
from .heuristic import compose


@dataclass
class CoverageReport:
    program: str
    mode: str
    total_statements: int
    covered_count: int
    value: float
    executions_used: int
    bug_found: bool
    exhausted: bool
    covered_ids: List[int]
    per_execution: List[Dict] = field(default_factory=list)
    rounds: int = 0  # bookkeeping; not part of the serialized report

    def to_dict(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "rounds"}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"program: {self.program}",
            f"mode: {self.mode}",
            f"statements covered: {self.covered_count}/{self.total_statements}",
            f"coverage: {self.value:.6f}",
            f"executions used: {self.executions_used}",
            f"bug found: {'yes' if self.bug_found else 'no'}",
            f"exhausted: {'yes' if self.exhausted else 'no'}",
            "covered ids: " + " ".join(str(i) for i in self.covered_ids),
        ]
        return "\n".join(lines) + "\n"


def _make_report(cfa: Cfa, total: int, mode: str, covered: AbstractSet[int],
                 per_execution: List[Dict], bug_found: bool,
                 exhausted: bool, rounds: int) -> CoverageReport:
    return CoverageReport(
        program=cfa.name,
        mode=mode,
        total_statements=total,
        covered_count=len(covered),
        value=len(covered) / total,
        executions_used=len(per_execution),
        bug_found=bug_found,
        exhausted=exhausted,
        covered_ids=sorted(covered),
        per_execution=per_execution,
        rounds=rounds,
    )


def _execution_entry(execution: Execution, newly: Sequence[int]) -> Dict:
    # Witness keys become strings so the dictionary equals its JSON image.
    return {
        "statements": list(execution.statements),
        "witness": {str(k): v for k, v in sorted(execution.witness.items())},
        "newly_covered": sorted(newly),
    }


def _coverage_rounds(cfa: Cfa, aa: AssumptionAutomaton, budget: Budget,
                     strategy: str, nondet_domain: Sequence[int],
                     under: bool) -> CoverageReport:
    """Rounds of cover-queries, each targeting the still-uncovered statements.

    The exact and the under mode differ in three ways only.  Exact asks
    for up to `max_counterexamples` executions per round and runs until
    nothing new is coverable.  Under asks for one execution per round,
    stops after `max_counterexamples` recorded executions, and aborts on a
    confirmed failing assert.

    The rounds share one tree: each round resumes the previous round's
    exploration (`explore`'s `resume`), which narrows the tree to the
    new remaining set instead of rebuilding it from the root, so a round
    creates only nodes no earlier round reached, up to `max_nodes` of
    them.  Each end (an exit node, or a walked root) is searched once,
    when a round reaches it, and a new end's search goes on from where
    the last search along a prefix of its path stood, in this round or
    an earlier one.  No search result is kept, and narrowing asks no end:
    a round checks its budget before each expansion, which records at
    most one execution, so no end is reached with the round full; an end
    whose execution a round recorded tracks nothing once its exercised
    set leaves `remaining`, and one whose search found nothing would find
    nothing again.  Each execution comes with its exercised set,
    the tracked set of the end that produced it, so the rounds never
    walk the automaton.  Once a search has run out of steps, in this
    round or an earlier one, a round that finds nothing leaves the report
    `exhausted`: that search's end might have covered more.
    """
    ids = statement_ids(cfa)
    check_alphabet(aa, ids)
    strategy = make_strategy(strategy)
    per_round = 1 if under else budget.max_counterexamples
    cap = budget.max_counterexamples if under else math.inf
    # A time limit is positive or None.
    deadline = time.monotonic() + (budget.time_limit or math.inf)
    remaining = frozenset(ids)
    per_execution: List[Dict] = []
    exhausted = False
    bug_found = False
    rounds = 0
    result = None
    while remaining and len(per_execution) < cap:
        left = deadline - time.monotonic()
        if left <= 0:
            exhausted = True
            break
        rounds += 1
        round_budget = Budget(time_limit=left, max_nodes=budget.max_nodes,
                              max_counterexamples=per_round)
        result = explore(cfa, Spec.cover(remaining, aa,
                                         stop_on_violation=under),
                         round_budget, strategy=strategy,
                         nondet_domain=nondet_domain, resume=result)
        if result.bug_found:
            bug_found = True
            break
        if not result.counterexamples:
            if result.verdict == UNKNOWN:
                exhausted = True
            break
        # An exercised set is a non-empty subset of the round's remaining
        # set, so the round's first execution covers something new.
        for execution, exercised in zip(result.counterexamples,
                                        result.exercised):
            newly = exercised & remaining
            if newly:
                remaining -= newly
                per_execution.append(_execution_entry(execution, newly))
    return _make_report(cfa, len(ids), "under" if under else "exact",
                        ids - remaining, per_execution, bug_found=bug_found,
                        exhausted=exhausted, rounds=rounds)


def exact_coverage(cfa: Cfa, aa: AssumptionAutomaton, budget: Budget,
                   strategy: str = DFS_POSTORDER,
                   nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN) -> CoverageReport:
    """Fixpoint over cover-queries: repeat until nothing new is coverable.

    Every round targets only the still-uncovered statements, so each
    successful round shrinks the target set and the loop runs at most one
    round per statement.  A round that ends without a verdict leaves the
    result an under-approximation, flagged via `exhausted`.
    """
    return _coverage_rounds(cfa, aa, budget, strategy, nondet_domain,
                            under=False)


def under_approx_coverage(cfa: Cfa, aa: AssumptionAutomaton, budget: Budget,
                          strategy: str = DFS_POSTORDER,
                          nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN) -> CoverageReport:
    """One execution per round, at most `max_counterexamples` rounds.

    Watches assertions while exploring: a confirmed failing assert aborts
    the whole computation and the report carries `bug_found`.
    """
    return _coverage_rounds(cfa, aa, budget, strategy, nondet_domain,
                            under=True)


def over_approx_coverage(cfa: Cfa, aa: AssumptionAutomaton) -> CoverageReport:
    """Statements on product edges that do not send the automaton to FALSE.

    Reads the automaton–CFA product only: no exploration, no executions.
    Sound upper bound because a covered statement is exercised from a
    reachable product state by a step the automaton does not reject;
    steps from TRUE never fail.
    """
    ids = statement_ids(cfa)
    check_alphabet(aa, ids)
    product = compose(aa, cfa)
    covered = set()
    for state in product.states:
        edges = cfa.out_edges(state[1])
        for edge, (target, _loc) in zip(edges, product.successors[state]):
            if target != FALSE_STATE:
                covered.add(edge.id)
    return _make_report(cfa, len(ids), "over", covered, [],
                        bug_found=False, exhausted=False, rounds=0)
