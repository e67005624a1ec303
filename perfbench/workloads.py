"""The four workloads: what each generates and what one round runs.

A round drives the user's flow through `vericov.cli.main` on every
generated input and checks each answer.  Every round makes the same
operations in the same order, whatever the seed, so the share of failed
operations is the same in every run.

Sizes are fixed per workload; the seed only draws constants (see gen.py).
Every workload runs every command, because every end-to-end metric is
reported on every workload; the commands a workload exists for run on all
its programs, the others on a sample.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List

import checks
import gen
import model

DOMAIN = ["--nondet-min", str(gen.DOMAIN_MIN),
          "--nondet-max", str(gen.DOMAIN_MAX)]
STRUCTURED = ["--format", "structured"]
# Every generated CFA location has at most two outgoing statements, so a
# node budget is overshot by at most one.
FANOUT = 2

TRUE_AUTOMATA = {
    # Fault (a): over_approx_coverage ignores transitions into __TRUE.
    "true_after_0": "AUTOMATON true_after_0\nINITIAL q0\nSTATE q0 @L0\n"
                    "  ON 0 -> __TRUE\nEND\n",
    "true_initial": "AUTOMATON true_initial\nINITIAL __TRUE\nEND\n",
}


class Input:
    """One generated program and the files it lives in."""

    def __init__(self, program: model.Program, work: Path):
        self.program = program
        self.c = str(work / f"{program.name}.c")
        self.aa = str(work / f"{program.name}.aa")
        Path(self.c).write_text(model.render(program))

    def automaton_file(self, suffix: str) -> str:
        return str(Path(self.aa).with_suffix(f".{suffix}.aa"))


def _loop(program: model.Program) -> model.While:
    return next(s for s in program.body if isinstance(s, model.While))


class _Workload:
    name = ""

    def setup(self, rng: random.Random, work: Path) -> None:
        raise NotImplementedError

    def round(self, run) -> None:
        raise NotImplementedError

    # -- steps shared by the workloads ---------------------------------------

    def verify(self, run, inp: Input, aa: str, extra: List[str]) -> Dict:
        rc, out = run.cli(["verify", inp.c, "--aa-out", aa, *extra,
                           *STRUCTURED], "verify_s")
        run.expect(rc == 0, f"verify exit code {rc}")
        run.aa_bytes(aa)
        return json.loads(out)

    def score(self, run, inp: Input, aa_file: str,
              aa: checks.Automaton) -> None:
        with run.op():
            rc, out = run.cli(["score", inp.c, "--aa", aa_file, *STRUCTURED],
                              "score_s")
            run.expect(rc == 0, f"score exit code {rc}")
            run.check(checks.score_monotone(aa, json.loads(out)["scores"]))

    def dump(self, run, inp: Input, times: int = 1) -> None:
        for _ in range(times):
            with run.op():
                rc, out = run.cli(["cfa-dump", inp.c], "cfa_dump_s")
                run.expect(rc == 0, f"cfa-dump exit code {rc}")
                run.check(checks.dump_statements(
                    out, inp.program.statement_count))

    def cover(self, run, command: str, inp: Input, aa_file: str,
              extra: List[str], metric) -> Dict:
        rc, out = run.cli([command, inp.c, "--aa", aa_file, *extra,
                           *STRUCTURED], metric)
        run.expect(rc == 0, f"{command} exit code {rc}")
        return json.loads(out)

    def over(self, run, inp: Input, aa_file: str) -> Dict:
        """Step 4 of the flow: the upper bound through the library."""
        lib = run.lib
        with run.untraced():
            cfa = lib["vericov.lowering"].source_to_cfa(
                Path(inp.c).read_text(), name=inp.program.name)
            aa = lib["vericov.automaton"].parse_aa(Path(aa_file).read_text())
            return lib["vericov.coverage"].over_approx_coverage(
                cfa, aa).to_dict()

    def roundtrip(self, run, text: str) -> None:
        auto = run.lib["vericov.automaton"]
        with run.untraced():
            run.check(checks.roundtrip(
                text, auto.serialize_aa(auto.parse_aa(text))))


# cfa-dump of a program of a few dozen lines takes about 2 ms, so the
# workloads built of such programs dump each one this many times a round:
# one call that short is too noisy a measurement on its own.
SHORT_DUMPS = 3


class _UnrolledLoops(_Workload):
    """`verify` interrupted inside a loop too long to unroll, then `score`,
    `cfa-dump` and the cover commands on every emitted automaton."""

    budget = 0
    sample_nodes = 400

    def programs(self, rng: random.Random) -> List[model.Program]:
        raise NotImplementedError

    def setup(self, rng, work):
        self.inputs = [Input(p, work) for p in self.programs(rng)]

    def round(self, run):
        for inp in self.inputs:
            with run.op():
                report = self.verify(run, inp, inp.aa,
                                     ["--max-nodes", str(self.budget)])
                run.check(checks.verify_interrupted(report, self.budget,
                                                    FANOUT))
                text = Path(inp.aa).read_text()
                self.roundtrip(run, text)
                aa = checks.Automaton(text)
                run.check(checks.falls_before_loop_exit(
                    aa, inp.program, _loop(inp.program)))
            self.score(run, inp, inp.aa, aa)
            self.dump(run, inp, SHORT_DUMPS)
            self.cover_sample(run, inp)

    def cover_sample(self, run, inp: Input) -> None:
        """The walk leaves the automaton inside the loop, so no execution
        within the node budget is a witness: both cover sets are empty."""
        budget = ["--max-nodes", str(self.sample_nodes)]
        with run.op():
            exact = self.cover(run, "cover-exact", inp, inp.aa, budget,
                               "cover_exact_s")
            run.check(checks.covered_empty(exact))
        with run.op():
            under = self.cover(run, "cover-under", inp, inp.aa, budget,
                               "cover_under_s")
            run.check(checks.covered_empty(under))
        with run.op():
            run.check(checks.sandwich(under, exact,
                                      self.over(run, inp, inp.aa)))


class SpinVerify(_UnrolledLoops):
    name = "spin-verify"
    budget = 1200

    def programs(self, rng):
        return [gen.spin(rng, f"spin{k}", live_vars=k) for k in (1, 2, 3)]


class LoopAutomaton(_UnrolledLoops):
    name = "loop-automaton"
    budget = 3000

    def programs(self, rng):
        return [gen.long_loop(rng, f"loop{k}") for k in range(2)]


class BranchCoverage(_Workload):
    name = "branch-coverage"
    programs = 1
    partial_budget = 30

    def setup(self, rng, work):
        self.inputs = [Input(gen.branch_chain(rng, f"chain{k}"), work)
                       for k in range(self.programs)]
        self.paths = [checks.branch_paths(i.program) for i in self.inputs]
        # Fault (a) inputs do not depend on the seed.
        self.fixed = Input(gen.branch_chain(random.Random(0), "fixed",
                                            kinds=("==", "never", "==")), work)
        self.fixed_paths = checks.branch_paths(self.fixed.program)
        self.true_files = {}
        for name, text in TRUE_AUTOMATA.items():
            self.true_files[name] = self.fixed.automaton_file(name)
            Path(self.true_files[name]).write_text(text)

    def round(self, run):
        for inp, paths in zip(self.inputs, self.paths):
            full, part = inp.automaton_file("full"), inp.automaton_file("part")
            with run.op():
                report = self.verify(run, inp, full, DOMAIN)
                run.check(checks.verify_safe(report))
            with run.op():
                report = self.verify(run, inp, part, [
                    "--max-nodes", str(self.partial_budget), *DOMAIN])
                run.check(checks.verify_interrupted(
                    report, self.partial_budget, FANOUT))
            self.dump(run, inp, SHORT_DUMPS)
            for aa_file in (full, part):
                aa = checks.Automaton(Path(aa_file).read_text())
                self.score(run, inp, aa_file, aa)
                self.sandwich(run, inp, aa_file, aa, paths, fault=False)
        for aa_file in self.true_files.values():
            aa = checks.Automaton(Path(aa_file).read_text())
            with run.untraced():
                self.sandwich(run, self.fixed, aa_file, aa,
                              self.fixed_paths, fault=True)

    def sandwich(self, run, inp, aa_file, aa, paths, fault):
        """cover-exact, cover-under under both strategies, and over."""
        expected = checks.expected_exact(paths, aa)
        exact_metric = None if fault else "cover_exact_s"
        under_metric = None if fault else "cover_under_s"
        with run.op(fault):
            exact = self.cover(run, "cover-exact", inp, aa_file, DOMAIN,
                               exact_metric)
            run.check(checks.exact_matches(exact, expected))
            run.check(checks.witnesses(exact, inp.program, aa))
        unders = []
        for strategy in ("dfs-postorder", "dfs-postorder+score"):
            with run.op(fault):
                under = self.cover(run, "cover-under", inp, aa_file,
                                   ["--strategy", strategy, *DOMAIN],
                                   under_metric)
                run.check(checks.witnesses(under, inp.program, aa))
                unders.append(under)
        with run.op(fault):
            over = self.over(run, inp, aa_file)
            for under in unders:
                run.check(checks.sandwich(under, exact, over))


class FrontendLarge(_Workload):
    name = "frontend-large"
    blocks = 600
    sample_blocks = 30
    budget = 300
    sample_budget = 150

    def setup(self, rng, work):
        self.main = Input(gen.large(rng, "large", self.blocks), work)
        self.sample = Input(gen.large(rng, "small", self.sample_blocks), work)
        # Fault (b) input does not depend on the seed.
        self.deep = Input(gen.deep_expression("deep", 3000), work)

    def round(self, run):
        inp = self.main
        self.dump(run, inp)
        with run.op():
            report = self.verify(run, inp, inp.aa,
                                 ["--max-nodes", str(self.budget)])
            run.check(checks.verify_interrupted(report, self.budget, FANOUT))
            aa = checks.Automaton(Path(inp.aa).read_text())
            run.check(checks.alphabet_within(aa, inp.program.statement_count))
        self.score(run, inp, inp.aa, aa)

        inp = self.sample
        with run.op():
            report = self.verify(run, inp, inp.aa,
                                 ["--max-nodes", str(self.sample_budget)])
            run.check(checks.verify_interrupted(report, self.sample_budget,
                                                FANOUT))
            aa = checks.Automaton(Path(inp.aa).read_text())
        # No nondet(): the one execution is the only witness candidate.
        expected = aa.walk(model.run(inp.program, ()))
        with run.op():
            exact = self.cover(run, "cover-exact", inp, inp.aa, [],
                               "cover_exact_s")
            run.check(checks.exact_matches(exact, expected))
            run.check(checks.witnesses(exact, inp.program, aa))
        with run.op():
            under = self.cover(run, "cover-under", inp, inp.aa, [],
                               "cover_under_s")
            run.check(checks.witnesses(under, inp.program, aa))
        with run.op():
            run.check(checks.sandwich(under, exact,
                                      self.over(run, inp, inp.aa)))

        inp = self.deep
        with run.untraced():
            with run.op(fault=True):
                rc, out = run.cli(["cfa-dump", inp.c], None)
                run.expect(rc == 0, f"deep expression: cfa-dump exit {rc}")
                run.check(checks.dump_statements(
                    out, inp.program.statement_count))
            with run.op(fault=True):
                rc, out = run.cli(["verify", inp.c, "--max-nodes", "50",
                                   "--aa-out", inp.aa, *STRUCTURED], None)
                run.expect(rc == 0, f"deep expression: verify exit {rc}")
                run.check(checks.verify_safe(json.loads(out)))
                run.check(checks.alphabet_within(
                    checks.Automaton(Path(inp.aa).read_text()),
                    inp.program.statement_count))


WORKLOADS = {w.name: w for w in (SpinVerify, LoopAutomaton, BranchCoverage,
                                 FrontendLarge)}
