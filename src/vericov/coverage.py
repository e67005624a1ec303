"""Statement coverage achieved by an interrupted verification run.

A statement counts as covered when some feasible, assertion-clean,
terminating execution exercises it while the run's assumption automaton
has not yet given up (entered FALSE).  The exact metric is computed by
repeatedly asking the explorer for executions that touch still-uncovered
statements; each round either covers something new or proves the rest
uncoverable.  Cheaper one-sided answers are also available: an
under-approximation from a bounded number of generated executions and an
over-approximation read off the automaton–CFA product.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .automaton import (FALSE_STATE, AssumptionAutomaton, check_alphabet, step)
from .cfa import Cfa, statement_ids
from .explorer import (Budget, DEFAULT_NONDET_DOMAIN, Execution, Spec,
                       TraversalStrategy, UNKNOWN, explore, make_strategy)
from .heuristic import compose

MODE_EXACT = "exact"
MODE_UNDER = "under"
MODE_OVER = "over"


def exercised_within_analysis(cex: Sequence[int],
                              aa: AssumptionAutomaton) -> FrozenSet[int]:
    """Statements of the trace seen strictly before the automaton fails.

    The statement whose transition enters FALSE is not collected; reaching
    TRUE keeps collecting (the verified region still exercises statements).
    """
    state = aa.initial
    seen = set()
    for stmt_id in cex:
        if state == FALSE_STATE:
            break
        nxt = step(aa, state, stmt_id)
        if nxt == FALSE_STATE:
            break
        seen.add(stmt_id)
        state = nxt
    return frozenset(seen)


def is_covered(s: int, t: Sequence[int], aa: AssumptionAutomaton,
               phi_holds: bool) -> bool:
    """Does the terminating execution t witness coverage of statement s?

    True when the execution satisfies the safety property and some prefix
    of it that the automaton accepts contains s — which is exactly
    membership in the exercised set, since accepted prefixes are the ones
    ending before FALSE.
    """
    return phi_holds and s in exercised_within_analysis(t, aa)


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
        return {
            "program": self.program,
            "mode": self.mode,
            "total_statements": self.total_statements,
            "covered_count": self.covered_count,
            "value": self.value,
            "executions_used": self.executions_used,
            "bug_found": self.bug_found,
            "exhausted": self.exhausted,
            "covered_ids": self.covered_ids,
            "per_execution": self.per_execution,
        }

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


def _make_report(cfa: Cfa, mode: str, covered: FrozenSet[int],
                 per_execution: List[Dict], bug_found: bool,
                 exhausted: bool, rounds: int) -> CoverageReport:
    total = len(statement_ids(cfa))
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


def _coverage_rounds(mode: str, cfa: Cfa, aa: AssumptionAutomaton,
                     budget: Budget, strategy: Optional[TraversalStrategy],
                     nondet_domain: Sequence[int]) -> CoverageReport:
    """Rounds of cover-queries, each targeting the still-uncovered statements.

    The modes differ in three ways only.  Exact asks for up to
    `max_counterexamples` executions per round and runs until nothing new
    is coverable.  Under asks for one execution per round, stops after
    `max_counterexamples` recorded executions, and aborts on a confirmed
    failing assert.

    The rounds share one record of witness searches: a search depends only
    on the CFA, the path, the replay mode and the domain, so a candidate
    execution an earlier round already confirmed or refuted is not
    searched again.
    """
    check_alphabet(aa, statement_ids(cfa))
    if strategy is None:
        strategy = make_strategy("dfs-postorder")
    under = mode == MODE_UNDER
    per_round = 1 if under else budget.max_counterexamples
    cap = budget.max_counterexamples if under else math.inf
    deadline = (None if budget.time_limit is None
                else time.monotonic() + budget.time_limit)
    remaining = frozenset(statement_ids(cfa))
    covered: FrozenSet[int] = frozenset()
    per_execution: List[Dict] = []
    exhausted = False
    bug_found = False
    rounds = 0
    searches: Dict = {}
    while remaining and len(per_execution) < cap:
        left = None if deadline is None else deadline - time.monotonic()
        if left is not None and left <= 0:
            exhausted = True
            break
        rounds += 1
        round_budget = Budget(time_limit=left, max_nodes=budget.max_nodes,
                              max_counterexamples=per_round)
        result = explore(cfa, Spec.cover(remaining, aa,
                                         stop_on_violation=under),
                         round_budget, strategy=strategy,
                         nondet_domain=nondet_domain, searches=searches)
        if result.bug_found:
            bug_found = True
            break
        if not result.counterexamples:
            if result.verdict == UNKNOWN:
                exhausted = True
            break
        before = covered
        for execution in result.counterexamples:
            exercised = exercised_within_analysis(execution.statements, aa)
            newly = exercised - covered
            if not newly:
                continue
            covered = covered | newly
            per_execution.append(_execution_entry(execution, newly))
        if covered == before:
            break
        remaining = remaining - covered
    return _make_report(cfa, mode, covered, per_execution,
                        bug_found=bug_found, exhausted=exhausted, rounds=rounds)


def exact_coverage(cfa: Cfa, aa: AssumptionAutomaton, budget: Budget,
                   strategy: Optional[TraversalStrategy] = None,
                   nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN) -> CoverageReport:
    """Fixpoint over cover-queries: repeat until nothing new is coverable.

    Every round targets only the still-uncovered statements, so each
    successful round shrinks the target set and the loop runs at most one
    round per statement.  A round that ends without a verdict leaves the
    result an under-approximation, flagged via `exhausted`.
    """
    return _coverage_rounds(MODE_EXACT, cfa, aa, budget, strategy,
                            nondet_domain)


def under_approx_coverage(cfa: Cfa, aa: AssumptionAutomaton, budget: Budget,
                          strategy: Optional[TraversalStrategy] = None,
                          nondet_domain: Sequence[int] = DEFAULT_NONDET_DOMAIN) -> CoverageReport:
    """One execution per round, at most `max_counterexamples` rounds.

    Watches assertions while exploring: a confirmed failing assert aborts
    the whole computation and the report carries `bug_found`.
    """
    return _coverage_rounds(MODE_UNDER, cfa, aa, budget, strategy,
                            nondet_domain)


def over_approx_coverage(cfa: Cfa, aa: AssumptionAutomaton) -> CoverageReport:
    """Statements on product edges that do not send the automaton to FALSE.

    Reads the automaton–CFA product only: no exploration, no executions.
    Sound upper bound because a covered statement is exercised from a
    reachable product state by a step the automaton does not reject;
    steps from TRUE never fail.
    """
    check_alphabet(aa, statement_ids(cfa))
    product = compose(aa, cfa)
    covered = set()
    for state in product.states:
        edges = cfa.out_edges(state[1])
        for edge, (target, _loc) in zip(edges, product.successors[state]):
            if target != FALSE_STATE:
                covered.add(edge.stmt.id)
    return _make_report(cfa, MODE_OVER, frozenset(covered), [],
                        bug_found=False, exhausted=False, rounds=0)


def line_projection(cfa: Cfa, covered_ids: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Project statement coverage onto source lines.

    A line is covered when at least one statement lowered from it is.
    Synthetic statements without a source line (line 0) are ignored.
    Returns (covered_lines, all_lines), both sorted.
    """
    covered = set(covered_ids)
    all_lines = set()
    covered_lines = set()
    for edge in cfa.edges:
        line = edge.stmt.source_line
        if line <= 0:
            continue
        all_lines.add(line)
        if edge.stmt.id in covered:
            covered_lines.add(line)
    return sorted(covered_lines), sorted(all_lines)
