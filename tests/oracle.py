"""Independent reference implementations used only by tests.

Everything here recomputes results from first principles so the package
under test can be checked against a second, dumber opinion:

* a brute-force enumerator of all feasible terminating executions of a
  CFA over a finite nondet domain (explicit environments, no abstraction,
  no covering),
* an automaton walk that collects exercised statements,
* exact coverage: the union of exercised statements over all executions
  that violate no assertion,
* a control-path enumerator working on the AST alone, for checking that
  CFA paths and source control paths agree.

Only data types (AST nodes, expression code, Edge records,
the automaton record) are shared with the package; all logic is
reimplemented.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from vericov import lang
from vericov.automaton import FALSE_STATE, TRUE_STATE, AssumptionAutomaton
from vericov.cfa import Cfa

ERR = object()  # evaluation had no defined result (division by zero)

DEFAULT_DOMAIN = tuple(range(-2, 3))


class OracleOverflow(Exception):
    """The enumeration caps were hit; the result would be incomplete."""


# ---------------------------------------------------------------------------
# Expression evaluation with explicit nondet branching
# ---------------------------------------------------------------------------


def eval_branches(expr: lang.Expr, env: Dict[str, int],
                  domain: Sequence[int]) -> List[Tuple[object, Tuple[int, ...]]]:
    """All evaluations of `expr`: list of (value-or-ERR, nondet draws).

    Draws are listed in left-to-right evaluation order; `&&`/`||`
    short-circuit, so a skipped operand contributes no draws.  Results
    come in lexicographic order of their draws.
    """
    out = []
    # Runs in progress: (next op, value stack, draws so far); each nondet()
    # occurrence forks one run per domain value.
    runs = [(0, (), ())]
    while runs:
        pc, stack, draws = runs.pop()
        while pc < len(expr):
            op, arg = expr[pc]
            pc += 1
            if op == lang.NONDET:
                runs.extend((pc, stack + (v,), draws + (v,))
                            for v in reversed(domain))
                break
            if op == lang.LIT:
                stack += (arg,)
            elif op == lang.VAR:
                stack += (env[arg],)
            elif op == lang.UNARY:
                value = stack[-1]
                stack = stack[:-1] + ((0 if value else 1) if arg == "!"
                                      else -value,)
            elif op == lang.BINARY:
                value = _apply(arg, stack[-2], stack[-1])
                if value is ERR:
                    out.append((ERR, draws))
                    break
                stack = stack[:-2] + (value,)
            elif op == lang.AND_SKIP and stack[-1] == 0:
                stack, pc = stack[:-1] + (0,), pc + arg
            elif op == lang.OR_SKIP and stack[-1] != 0:
                stack, pc = stack[:-1] + (1,), pc + arg
        else:
            out.append((stack[-1], draws))
    return out


def _apply(op: str, a: int, b: int) -> object:
    if op in ("&&", "||"):
        return 1 if b != 0 else 0  # lhs already known truthy-relevant
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/" or op == "%":
        if b == 0:
            return ERR
        q = abs(a) // abs(b)
        q = q if (a < 0) == (b < 0) else -q
        return q if op == "/" else a - q * b
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == ">=":
        return 1 if a >= b else 0
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    raise AssertionError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Terminating executions of a CFA
# ---------------------------------------------------------------------------


def feasible_executions(cfa: Cfa, domain: Sequence[int] = DEFAULT_DOMAIN,
                        max_len: int = 200, max_paths: int = 100000,
                        max_states: int = 2000000,
                        ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], bool]]:
    """Every concrete run from entry to exit, by brute force.

    Returns (statement ids, nondet draws in order, phi_ok) triples where
    phi_ok records that every assert condition on the run was true.  An
    assume that fails or any undefined evaluation kills a run; asserts
    never block.  Raises OracleOverflow instead of returning an
    incomplete answer.
    """
    results: List[Tuple[Tuple[int, ...], Tuple[int, ...], bool]] = []
    # Stack entries: (node, env, stmts, draws, phi_ok)
    stack = [(cfa.entry, {}, (), (), True)]
    visited = 0
    while stack:
        node, env, stmts, draws, phi_ok = stack.pop()
        visited += 1
        if visited > max_states:
            raise OracleOverflow("state cap hit")
        if node == cfa.exit:
            results.append((stmts, draws, phi_ok))
            if len(results) > max_paths:
                raise OracleOverflow("path cap hit")
            continue
        if len(stmts) >= max_len:
            raise OracleOverflow("length cap hit")
        # Reversed edge order: the stack pops lowest statement ID first.
        for edge in reversed(cfa.out_edges(node)):
            if edge.kind == "assign":
                for value, d in reversed(eval_branches(edge.expr, env, domain)):
                    if value is ERR:
                        continue
                    env2 = dict(env)
                    env2[edge.var] = value
                    stack.append((edge.dst, env2, stmts + (edge.id,),
                                  draws + d, phi_ok))
            elif edge.kind == "assume":
                for value, d in reversed(eval_branches(edge.expr, env, domain)):
                    if value is ERR or value == 0:
                        continue
                    stack.append((edge.dst, env, stmts + (edge.id,),
                                  draws + d, phi_ok))
            elif edge.kind == "assert":
                for value, d in reversed(eval_branches(edge.expr, env, domain)):
                    if value is ERR:
                        continue
                    stack.append((edge.dst, env, stmts + (edge.id,),
                                  draws + d, phi_ok and value != 0))
            else:  # skip, halt
                stack.append((edge.dst, env, stmts + (edge.id,),
                              draws, phi_ok))
    return results


# ---------------------------------------------------------------------------
# Automaton walk
# ---------------------------------------------------------------------------


def exercised(stmt_seq: Sequence[int], aa: AssumptionAutomaton) -> Set[int]:
    """Statements consumed before the walk first enters FALSE.

    The statement whose transition enters FALSE is not collected; the
    TRUE sink absorbs and keeps collecting.
    """
    state = aa.initial
    out: Set[int] = set()
    for stmt_id in stmt_seq:
        if state == FALSE_STATE:
            break
        if state != TRUE_STATE:
            state = aa.transitions.get((state, stmt_id), FALSE_STATE)
            if state == FALSE_STATE:
                break
        out.add(stmt_id)
    return out


def psi_holds(stmt_seq: Sequence[int], aa: AssumptionAutomaton) -> bool:
    state = aa.initial
    if state == FALSE_STATE:
        return False
    for stmt_id in stmt_seq:
        if state == TRUE_STATE:
            return True
        state = aa.transitions.get((state, stmt_id), FALSE_STATE)
        if state == FALSE_STATE:
            return False
    return True


# ---------------------------------------------------------------------------
# Exact statement coverage, by definition
# ---------------------------------------------------------------------------


def exact_covered(cfa: Cfa, aa: AssumptionAutomaton,
                  domain: Sequence[int] = DEFAULT_DOMAIN,
                  max_len: int = 200, max_paths: int = 100000) -> Set[int]:
    """Union of exercised statements over assertion-clean executions."""
    covered: Set[int] = set()
    for stmts, _draws, phi_ok in feasible_executions(cfa, domain, max_len,
                                                     max_paths):
        if phi_ok:
            covered |= exercised(stmts, aa)
    return covered


# ---------------------------------------------------------------------------
# Control paths straight from the AST
# ---------------------------------------------------------------------------

Label = Tuple[str, Optional[str], Optional[str]]
_HALT: Label = ("halt", None, None)

_Frame = Tuple[Tuple[lang.Stmt, ...], int]


def ast_label_paths(program: lang.Program, max_len: int = 50,
                    max_paths: int = 200000) -> Set[Tuple[Label, ...]]:
    """Label sequences of all terminating source control paths ≤ max_len.

    Labels are (kind, assigned variable, expression text); loops branch
    into an exit step and an iterate step exactly like structured control
    flow executes.  Paths longer than max_len are silently dropped, so
    the result is comparable with a CFA enumeration under the same cap.
    """
    out: Set[Tuple[Label, ...]] = set()

    def text(expr: lang.Expr) -> str:
        return lang.expr_to_text(expr)

    def emit(labels: List[Label]) -> None:
        out.add(tuple(labels))
        if len(out) > max_paths:
            raise OracleOverflow("path cap hit")

    def walk(frames: List[_Frame], labels: List[Label]) -> None:
        while frames and frames[-1][1] >= len(frames[-1][0]):
            frames = frames[:-1]
        if not frames:
            if len(labels) < max_len:
                emit(labels + [_HALT])
            return
        if len(labels) >= max_len:
            return
        stmts, idx = frames[-1]
        rest = frames[:-1] + [(stmts, idx + 1)]
        stmt = stmts[idx]
        if isinstance(stmt, lang.Assign):
            walk(rest, labels + [("assign", stmt.name, text(stmt.expr))])
        elif isinstance(stmt, lang.Skip):
            walk(rest, labels + [("skip", None, None)])
        elif isinstance(stmt, lang.Assert):
            walk(rest, labels + [("assert", None, text(stmt.cond))])
        elif isinstance(stmt, lang.Return):
            if len(labels) < max_len:
                emit(labels + [_HALT])
        elif isinstance(stmt, lang.If):
            walk(rest + [(tuple(stmt.then), 0)],
                 labels + [("assume", None, text(stmt.cond))])
            walk(rest + [(tuple(stmt.orelse), 0)],
                 labels + [("assume", None, text(lang.negate(stmt.cond)))])
        elif isinstance(stmt, lang.For):
            body = tuple(stmt.body)
            if stmt.update is not None:
                body = body + (stmt.update,)
            if stmt.init is not None:
                desugared = lang.For(None, stmt.cond, None, list(body))
                walk(frames[:-1] + [(stmts[:idx] + (stmt.init, desugared)
                                     + stmts[idx + 1:], idx)], labels)
            else:
                _loop(frames, idx, stmt.cond, body, labels)
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    def _loop(frames: List[_Frame], idx: int, cond: lang.Expr,
              body: Tuple[lang.Stmt, ...], labels: List[Label]) -> None:
        stmts, _ = frames[-1]
        exit_label = ("assume", None, text(lang.negate(cond)))
        walk(frames[:-1] + [(stmts, idx + 1)], labels + [exit_label])
        walk(frames[:-1] + [(stmts, idx), (body, 0)],
             labels + [("assume", None, text(cond))])

    walk([(tuple(program.body), 0)], [])
    return out


def cfa_label_paths(cfa: Cfa, max_len: int = 50,
                    max_paths: int = 200000) -> Set[Tuple[Label, ...]]:
    """Label sequences of all entry-to-exit CFA paths of ≤ max_len edges."""
    out: Set[Tuple[Label, ...]] = set()
    stack: List[Tuple[int, Tuple[Label, ...]]] = [(cfa.entry, ())]
    while stack:
        node, labels = stack.pop()
        if node == cfa.exit:
            out.add(labels)
            if len(out) > max_paths:
                raise OracleOverflow("path cap hit")
            continue
        if len(labels) >= max_len:
            continue
        for edge in cfa.out_edges(node):
            label = (edge.kind, edge.var,
                     lang.expr_to_text(edge.expr) if edge.expr is not None
                     else None)
            stack.append((edge.dst, labels + (label,)))
    return out
