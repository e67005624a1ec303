"""Command-line front end.

Subcommands:

* cfa-dump     print the control-flow automaton of a program
* verify       run the assertion analysis, optionally saving the
               assumption automaton of the explored region
* cover-exact  exact statement coverage of a program under an automaton
* cover-under  coverage under-approximation from generated executions
* score        exploration-priority scores derived from an automaton

Exit codes: 0 success, 1 confirmed assertion violation, 2 usage, parse
or format errors (also an interrupted verify whose condition was not
saved anywhere), 3 unexpected internal errors.

Time limits are soft: they are checked between node expansions, so a
single long expansion can overshoot before the run stops.  Deterministic
runs should use --max-nodes instead.

`main` builds the argument parser on its first call and keeps it for the
process: parsing only reads it, so every later in-process call skips the
rebuild.  `build_parser` still returns a fresh parser on each call.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from . import automaton, coverage, heuristic
from .automaton import AssumptionAutomaton, FormatError, StatementIdMismatch
from .cfa import Cfa, dump_cfa, statement_ids
from .explorer import (BFS, Budget, COUNTEREXAMPLES, DEFAULT_NONDET_DOMAIN,
                       DFS_POSTORDER, STRATEGIES, UNKNOWN, Spec, explore,
                       make_strategy)
from .lang import ParseError, UndeclaredVariable
from .lowering import source_to_cfa

EXIT_OK = 0
EXIT_BUG = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_FORMATS = ("text", "structured")
# `verify` has no automaton to score.
_VERIFY_STRATEGIES = (BFS, DFS_POSTORDER)


@dataclass
class RunConfig:
    """Everything one invocation needs.  The parser takes its defaults from
    here and these come from the explorer's, so each is written once."""

    command: str
    program: str
    time_limit: float = Budget.time_limit  # seconds; 0 or less: unlimited
    max_nodes: int = 0  # 0 or less: unlimited
    max_cex: int = Budget.max_counterexamples
    strategy: str = DFS_POSTORDER
    nondet_min: int = DEFAULT_NONDET_DOMAIN[0]
    nondet_max: int = DEFAULT_NONDET_DOMAIN[-1]
    aa_in: Optional[str] = None
    aa_out: Optional[str] = None
    format: str = "text"


class _CliError(Exception):
    """A user-facing error that maps to EXIT_USAGE."""


def _read_text(path: str) -> str:
    """A file's text, decoded as UTF-8 after an optional byte-order mark,
    with universal newlines as text mode reads them.  The mark is cut off
    the bytes before decoding, so that a decoding error names a file
    offset and a file of part of a mark is not UTF-8."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}")
    mark = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[mark:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: not UTF-8 text (byte"
                        f" {exc.start + mark})")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}")


def _load_cfa(config: RunConfig) -> Cfa:
    source = _read_text(config.program)
    return source_to_cfa(source, name=Path(config.program).stem)


def _load_aa(config: RunConfig) -> AssumptionAutomaton:
    if config.aa_in is None:
        raise _CliError(f"{config.command} requires --aa")
    return automaton.parse_aa(_read_text(config.aa_in))


def _budget(config: RunConfig) -> Budget:
    if math.isnan(config.time_limit):
        raise _CliError("--time-limit must be a number, not nan")
    time_limit = config.time_limit if config.time_limit > 0 else None
    max_nodes = config.max_nodes if config.max_nodes > 0 else None
    if config.max_cex <= 0:
        raise _CliError("--max-cex must be positive")
    return Budget(time_limit=time_limit, max_nodes=max_nodes,
                  max_counterexamples=config.max_cex)


def _domain(config: RunConfig) -> range:
    if config.nondet_min > config.nondet_max:
        raise _CliError("--nondet-min must not exceed --nondet-max")
    if config.nondet_max - config.nondet_min >= sys.maxsize:
        raise _CliError(f"--nondet-min..--nondet-max may span at most"
                        f" {sys.maxsize} values")
    return range(config.nondet_min, config.nondet_max + 1)


def _cmd_cfa_dump(config: RunConfig) -> int:
    sys.stdout.write(dump_cfa(_load_cfa(config)))
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    cfa = _load_cfa(config)
    strategy = make_strategy(config.strategy)
    result = explore(cfa, Spec.assertions(), _budget(config),
                     strategy=strategy, nondet_domain=_domain(config))
    if config.aa_out:
        _write_text(config.aa_out, automaton.serialize_aa(result.aa))
    stats = result.art_stats
    if config.format == "structured":
        payload = {
            "program": cfa.name,
            "verdict": result.verdict,
            **asdict(stats),
            "counterexamples": [asdict(e) for e in result.counterexamples],
            "automaton_written": config.aa_out or None,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        print(f"program: {cfa.name}")
        print(f"verdict: {result.verdict}")
        print(f"nodes created: {stats.nodes_created} "
              f"(expanded {stats.nodes_expanded}, covered {stats.nodes_covered},"
              f" frontier {stats.nodes_frontier}, pruned {stats.nodes_pruned})")
        print(f"counterexamples: {len(result.counterexamples)}")
        for i, execution in enumerate(result.counterexamples):
            stmts = " ".join(str(s) for s in execution.statements)
            line = f"  cex {i}: statements {stmts}"
            if execution.witness:
                line += "; witness " + " ".join(
                    f"n{i}={v}" for i, v in sorted(execution.witness.items()))
            print(line)
        if config.aa_out:
            print(f"automaton written to {config.aa_out}")
    if result.verdict == COUNTEREXAMPLES:
        return EXIT_BUG
    if result.verdict == UNKNOWN and not config.aa_out:
        print("error: analysis interrupted and no --aa-out to save the"
              " condition", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_cover(config: RunConfig) -> int:
    cfa = _load_cfa(config)
    aa = _load_aa(config)
    try:
        budget, domain = _budget(config), _domain(config)
    except _CliError:
        # Foreign statement ids are reported before bad option values.
        # Otherwise the coverage computation checks them.
        automaton.check_alphabet(aa, statement_ids(cfa))
        raise
    metric = (coverage.exact_coverage if config.command == "cover-exact"
              else coverage.under_approx_coverage)
    report = metric(cfa, aa, budget, strategy=make_strategy(config.strategy),
                    nondet_domain=domain)
    sys.stdout.write(report.to_json() if config.format == "structured"
                     else report.to_text())
    return EXIT_BUG if report.bug_found else EXIT_OK


def _cmd_score(config: RunConfig) -> int:
    cfa = _load_cfa(config)
    aa = _load_aa(config)
    automaton.check_alphabet(aa, statement_ids(cfa))
    scores = heuristic.score(aa, cfa)
    ordered = sorted(aa.states, key=lambda s: -scores.get(s, 0))
    if config.format == "structured":
        # The bytes of json.dumps(payload, indent=2), whose indenting
        # encoder is pure Python: the C encoder writes the score map.
        body = json.dumps({s: scores.get(s, 0) for s in ordered},
                          separators=(",\n    ", ": "))
        if ordered:
            body = "{\n    " + body[1:-1] + "\n  }"
        sys.stdout.write('{\n  "program": %s,\n  "scores": %s\n}\n'
                         % (json.dumps(cfa.name), body))
    else:
        for state in ordered:
            print(f"{state} {scores.get(state, 0)}")
    return EXIT_OK


_COMMANDS = {
    "cfa-dump": _cmd_cfa_dump,
    "verify": _cmd_verify,
    "cover-exact": _cmd_cover,
    "cover-under": _cmd_cover,
    "score": _cmd_score,
}


def run(config: RunConfig) -> int:
    """Execute one command; never raises for malformed user input."""
    try:
        # A library caller's config can hold values the parser refuses.
        strategies = (_VERIFY_STRATEGIES if config.command == "verify"
                      else STRATEGIES)
        for name, choices in (("strategy", strategies), ("format", _FORMATS)):
            value = getattr(config, name)
            if value not in choices:
                raise _CliError(f"--{name} must be one of"
                                f" {', '.join(choices)}, not {value!r}")
        return _COMMANDS[config.command](config)
    except (_CliError, ParseError, UndeclaredVariable, FormatError,
            StatementIdMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away (e.g. piped into head); silence the final
        # interpreter flush of stdout and call it a success.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return EXIT_OK
    except Exception as exc:
        # A MemoryError has no message: name the type instead.
        print(f"internal error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_INTERNAL


# --max-nodes on the coverage commands, whose rounds extend one tree.
_ROUND_NODES = "stop each coverage round once it has created N tree nodes"


def _add_budget_options(parser: argparse.ArgumentParser, max_nodes: str,
                        max_cex: str) -> None:
    """The budget options, with the help texts of --max-nodes and
    --max-cex, which mean different things on different commands."""
    parser.add_argument("--time-limit", type=float,
                        default=RunConfig.time_limit, metavar="SECONDS",
                        help="soft time budget; 0 or less means unlimited"
                             " (default: %(default)s)")
    parser.add_argument("--max-nodes", type=int, default=RunConfig.max_nodes,
                        metavar="N",
                        help=max_nodes + "; 0 or less means unlimited"
                                         " (default: %(default)s)")
    parser.add_argument("--max-cex", type=int, default=RunConfig.max_cex,
                        metavar="N",
                        help=max_cex + " (default: %(default)s)")
    parser.add_argument("--nondet-min", type=int,
                        default=RunConfig.nondet_min, metavar="INT",
                        help="smallest value tried for nondet()"
                             " (default: %(default)s)")
    parser.add_argument("--nondet-max", type=int,
                        default=RunConfig.nondet_max, metavar="INT",
                        help="largest value tried for nondet()"
                             " (default: %(default)s)")


def _add_format_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS,
                        default=RunConfig.format,
                        help="output format (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vericov",
        description="Statement coverage metrics for interrupted"
                    " verification runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cfa-dump", help="print a program's control-flow"
                                        " automaton")
    p.add_argument("program")

    # No abbreviations: `--aa`, an option of the other commands, would
    # otherwise mean `--aa-out` here and overwrite its file.
    p = sub.add_parser("verify", help="run the assertion analysis",
                       allow_abbrev=False)
    p.add_argument("program")
    p.add_argument("--strategy", choices=_VERIFY_STRATEGIES,
                   default=RunConfig.strategy)
    p.add_argument("--aa-out", metavar="FILE",
                   help="write the assumption automaton of the explored"
                        " region here")
    _add_budget_options(p, "stop after creating N tree nodes",
                        "keep at most N counterexamples")
    _add_format_option(p)

    p = sub.add_parser("cover-exact", help="exact statement coverage under"
                                           " an assumption automaton")
    p.add_argument("program")
    p.add_argument("--aa", dest="aa_in", metavar="FILE", required=True)
    _add_budget_options(p, _ROUND_NODES,
                        "find at most N executions per round")
    _add_format_option(p)

    p = sub.add_parser("cover-under", help="coverage lower bound from"
                                           " generated executions")
    p.add_argument("program")
    p.add_argument("--aa", dest="aa_in", metavar="FILE", required=True)
    p.add_argument("--strategy", choices=STRATEGIES,
                   default=RunConfig.strategy)
    _add_budget_options(p, _ROUND_NODES,
                        "record at most N executions in total")
    _add_format_option(p)

    p = sub.add_parser("score", help="print per-state exploration scores,"
                                     " highest first")
    p.add_argument("program")
    p.add_argument("--aa", dest="aa_in", metavar="FILE", required=True)
    _add_format_option(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config of the parsed options; options a command lacks keep their
    `RunConfig` defaults."""
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
