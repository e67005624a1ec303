#!/usr/bin/env python3
"""Benchmark self-check: every output check must catch a wrong answer.

    python3 perfbench/selfcheck.py

Runs vericov once on small generated inputs, confirms that each check in
checks.py accepts the real answer, then feeds each check deliberately
wrong answers (a covered set with an id added or removed, a changed
witness value, a statement count off by one, ...) and confirms that it
reports a problem.  Prints one line per case; exits 1 if any real answer
is rejected or any wrong answer passes.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from pathlib import Path

import run as bench

sys.path.insert(0, str(bench.SRC))

import checks  # noqa: E402
import gen  # noqa: E402
import model  # noqa: E402

WORK = bench.WORK / "selfcheck"
DOMAIN = ["--nondet-min", str(gen.DOMAIN_MIN),
          "--nondet-max", str(gen.DOMAIN_MAX), "--format", "structured"]
failures = []


def case(label: str, problems: list, wrong: bool) -> None:
    ok = bool(problems) == wrong
    if not ok:
        failures.append(label)
    verdict = "PASS" if ok else "FAIL"
    expect = "rejected" if wrong else "accepted"
    print(f"{verdict}: {label} ({expect} expected, "
          f"{len(problems)} problems)")


def write(program: model.Program) -> str:
    path = WORK / f"{program.name}.c"
    path.write_text(model.render(program))
    return str(path)


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    lib = bench.import_vericov()
    runner = bench.Run(lib, None)
    cli = runner.cli
    auto = lib["vericov.automaton"]
    rng = random.Random(7)

    # -- verify, round trip, loop walk, score, cfa-dump --------------------
    spin = gen.spin(rng, "spin", live_vars=2)
    c, aa_file, budget = write(spin), str(WORK / "spin.aa"), 200
    _, out = cli(["verify", c, "--max-nodes", str(budget), "--aa-out",
                  aa_file, "--format", "structured"], None)
    report = json.loads(out)
    case("verify interrupted", checks.verify_interrupted(report, budget, 2),
         False)
    for label, field, value in (("verdict safe", "verdict", "safe"),
                                ("one node short", "nodes_created",
                                 budget - 1),
                                ("two nodes over", "nodes_created",
                                 budget + 2),
                                ("a counterexample", "counterexamples",
                                 [{"statements": [0], "witness": {}}])):
        wrong = dict(report, **{field: value})
        case(f"verify interrupted: {label}",
             checks.verify_interrupted(wrong, budget, 2), True)
    case("verify safe: verdict unknown", checks.verify_safe(report), True)

    text = Path(aa_file).read_text()
    case("round trip", checks.roundtrip(
        text, auto.serialize_aa(auto.parse_aa(text))), False)
    case("round trip: one line changed",
         checks.roundtrip(text, text.replace("ON 1 ->", "ON 2 ->", 1)), True)

    aa = checks.Automaton(text)
    loop = next(s for s in spin.body if isinstance(s, model.While))
    case("loop walk", checks.falls_before_loop_exit(aa, spin, loop), False)
    short = copy.deepcopy(spin)
    short_loop = next(s for s in short.body if isinstance(s, model.While))
    short_loop.cond = ("b", "<", ("v", "i"), ("n", 3))
    case("loop walk: loop exits inside the automaton",
         checks.falls_before_loop_exit(aa, short, short_loop), True)
    case("alphabet", checks.alphabet_within(aa, spin.statement_count), False)
    case("alphabet: one id too many",
         checks.alphabet_within(aa, max(s for _, s in aa.transitions)), True)

    _, out = cli(["score", c, "--aa", aa_file, "--format", "structured"],
                 None)
    scores = json.loads(out)["scores"]
    case("score monotone", checks.score_monotone(aa, scores), False)
    (src, _), tgt = next((k, t) for k, t in aa.transitions.items()
                         if t not in (checks.FALSE, checks.TRUE))
    case("score monotone: successor raised",
         checks.score_monotone(aa, dict(scores, **{tgt: scores[src] + 1})),
         True)
    case("score monotone: state missing",
         checks.score_monotone(aa, {k: v for k, v in scores.items()
                                    if k != tgt}), True)

    _, out = cli(["cfa-dump", c], None)
    count = spin.statement_count
    case("cfa-dump count", checks.dump_statements(out, count), False)
    case("cfa-dump count: off by one",
         checks.dump_statements(out, count + 1), True)
    lines = out.splitlines()
    case("cfa-dump count: a statement missing",
         checks.dump_statements("\n".join(lines[:-1]), count), True)

    # -- coverage on a branch chain --------------------------------------
    chain = gen.branch_chain(rng, "chain")
    c, aa_file = write(chain), str(WORK / "chain.aa")
    cli(["verify", c, "--max-nodes", "30", "--aa-out", aa_file, *DOMAIN],
        None)
    aa = checks.Automaton(Path(aa_file).read_text())
    expected = checks.expected_exact(checks.branch_paths(chain), aa)
    _, out = cli(["cover-exact", c, "--aa", aa_file, *DOMAIN], None)
    exact = json.loads(out)
    _, out = cli(["cover-under", c, "--aa", aa_file, *DOMAIN], None)
    under = json.loads(out)
    over = {"covered_ids": sorted(s for _, s in aa.transitions)}
    case("exact set", checks.exact_matches(exact, expected), False)
    extra = max(expected) + 1
    case("exact set: one id added", checks.exact_matches(
        dict(exact, covered_ids=exact["covered_ids"] + [extra]), expected),
        True)
    case("exact set: one id removed", checks.exact_matches(
        dict(exact, covered_ids=exact["covered_ids"][1:]), expected), True)
    case("exact set: exhausted", checks.exact_matches(
        dict(exact, exhausted=True), expected), True)
    case("sandwich", checks.sandwich(under, exact, over), False)
    case("sandwich: under outside exact", checks.sandwich(
        dict(under, covered_ids=under["covered_ids"] + [extra]), exact,
        over), True)
    case("sandwich: exact outside over", checks.sandwich(
        under, exact, dict(over, covered_ids=over["covered_ids"][1:])), True)

    case("witnesses", checks.witnesses(exact, chain, aa), False)
    case("witnesses (under)", checks.witnesses(under, chain, aa), False)
    entry = exact["per_execution"][0]
    guarded = 0  # nondet occurrence 0 is a0, which decides the first branch
    for value in range(gen.DOMAIN_MIN, gen.DOMAIN_MAX + 1):
        changed = dict(entry["witness"], **{str(guarded): value})
        taken = list(model.run(chain, [v for _, v in sorted(
            (int(k), v) for k, v in changed.items())]))
        if taken != entry["statements"]:
            break
    wrong = dict(exact, per_execution=[dict(entry, witness=changed)])
    case("witnesses: a changed witness value",
         checks.witnesses(wrong, chain, aa), True)
    wrong = dict(exact, per_execution=[dict(
        entry, statements=entry["statements"][:-1])])
    case("witnesses: a truncated path", checks.witnesses(wrong, chain, aa),
         True)
    outside = next(i for i in range(chain.statement_count)
                   if i not in aa.walk(entry["statements"]))
    wrong = dict(exact, per_execution=[dict(
        entry, newly_covered=entry["newly_covered"] + [outside])])
    case("witnesses: newly covered outside the walk",
         checks.witnesses(wrong, chain, aa), True)

    case("covered empty", checks.covered_empty({"covered_ids": []}), False)
    case("covered empty: one id", checks.covered_empty({"covered_ids": [0]}),
         True)

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} self-check failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
