"""Command-line behavior: exit codes, output shapes, the two-phase flow."""

from __future__ import annotations

import argparse
import codecs
import json
import resource
import subprocess
import sys

import pytest

from vericov import automaton, cli, coverage, heuristic, source_to_cfa
from vericov.cli import (EXIT_BUG, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE,
                         RunConfig, build_parser, config_from_args, main, run)

from conftest import FIXTURES, GOLDENS, golden

BIGLOOP = str(FIXTURES / "bigloop.c")
DEADBRANCH = str(FIXTURES / "deadbranch.c")
TINYLOOP_BUG = str(FIXTURES / "tinyloop_bug.c")
ASSERT_NONDET = str(FIXTURES / "assert_nondet.c")
SKIP_STMTS = str(FIXTURES / "skip_stmts.c")
PARTIAL_AA = str(GOLDENS / "bigloop_partial.aa")

FULL_AA_TEXT = "AUTOMATON all\nINITIAL __TRUE\nEND\n"


def _full_aa_file(tmp_path):
    path = tmp_path / "all.aa"
    path.write_text(FULL_AA_TEXT)
    return str(path)


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# Exit codes -------------------------------------------------------------------


def test_cfa_dump_matches_golden(capsys):
    assert main(["cfa-dump", BIGLOOP]) == EXIT_OK
    assert capsys.readouterr().out == golden("bigloop.dump")


def test_parse_error_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main() { int x = ; }")
    assert main(["cfa-dump", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["cfa-dump", str(tmp_path / "nope.c")]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_aa_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.aa"
    assert main(["verify", BIGLOOP, "--max-nodes", "20",
                 "--aa-out", str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_non_utf8_program_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.c"
    bad.write_bytes(b"int main() { int caf\xe9 = 1; }")
    assert main(["cfa-dump", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 text (byte 20)\n")


def test_a_leading_byte_order_mark_is_read_past(tmp_path, capsys):
    # gcc and clang accept a UTF-8 source that starts with a byte-order
    # mark; so do the program and automaton readers.
    program = tmp_path / "bom.c"
    source = (FIXTURES / "bigloop.c").read_bytes()
    program.write_bytes(codecs.BOM_UTF8 + source)
    assert main(["cfa-dump", str(program)]) == EXIT_OK
    assert capsys.readouterr().out == golden("bigloop.dump")
    plain, marked = tmp_path / "plain.aa", tmp_path / "marked.aa"
    plain.write_text(FULL_AA_TEXT)
    marked.write_bytes(codecs.BOM_UTF8 + FULL_AA_TEXT.encode())
    assert main(["score", BIGLOOP, "--aa", str(plain)]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["score", BIGLOOP, "--aa", str(marked)]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_non_utf8_offset_counts_a_byte_order_mark(tmp_path, capsys):
    bad = tmp_path / "latin1.c"
    bad.write_bytes(codecs.BOM_UTF8 + b"int main() { int caf\xe9 = 1; }")
    assert main(["cfa-dump", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 text (byte 23)\n")
    # Part of a mark is not a mark: the file is not UTF-8 from byte 0.
    for data in (b"\xef", b"\xef\xbb", b"\xef\xbbint main() { }\n"):
        bad.write_bytes(data)
        assert main(["cfa-dump", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot read {bad}: not UTF-8 text (byte 0)\n")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_every_line_ending_starts_a_line(newline, tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_bytes(newline.join([b"int main() {", b"  int x = @;", b"}"]))
    assert main(["cfa-dump", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: 2:11: unexpected character '@'\n")


def test_huge_literal_is_a_positioned_parse_error(tmp_path, capsys):
    bad = tmp_path / "huge.c"
    bad.write_text("int main() {\n  int x = " + "9" * 5000 + ";\n}\n")
    assert main(["cfa-dump", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: 2:11: integer literal of 5000 digits is too long\n")


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise ValueError("inconsistent state")

    monkeypatch.setattr("vericov.cli.dump_cfa", broken)
    assert main(["cfa-dump", BIGLOOP]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: inconsistent state\n"


def test_memory_error_names_its_type(monkeypatch, capsys):
    # A MemoryError carries no message; the report must still say what
    # went wrong.
    def exhausted(*_args, **_kwargs):
        raise MemoryError()

    monkeypatch.setattr("vericov.cli.dump_cfa", exhausted)
    assert main(["cfa-dump", BIGLOOP]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_verify_safe_program(capsys):
    assert main(["verify", str(FIXTURES / "loop_concrete.c")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: safe" in out
    assert "counterexamples: 0" in out


def test_verify_bug_exits_one_and_prints_witness(capsys):
    assert main(["verify", ASSERT_NONDET]) == EXIT_BUG
    out = capsys.readouterr().out
    assert "verdict: counterexamples" in out
    assert "cex 0: statements 0 1; witness n0=1" in out


def test_interrupted_verify_without_saving_condition_fails(capsys):
    code = main(["verify", BIGLOOP, "--max-nodes", "200"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "verdict: unknown" in captured.out
    assert "no --aa-out" in captured.err


def test_interrupted_verify_with_saved_condition_succeeds(tmp_path, capsys):
    out_aa = tmp_path / "bigloop.aa"
    code = main(["verify", BIGLOOP, "--max-nodes", "200",
                 "--aa-out", str(out_aa)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "verdict: unknown" in captured.out
    assert f"automaton written to {out_aa}" in captured.out
    assert "__FALSE" in out_aa.read_text()


def test_bad_strategy_rejected_by_argument_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", BIGLOOP, "--strategy", "random"])
    assert exc.value.code == 2
    assert "--strategy" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--aa", "--strategy"])
def test_verify_has_no_score_strategy(option, tmp_path, capsys):
    given = tmp_path / "given.aa"
    given.write_text(FULL_AA_TEXT)
    value = str(given) if option == "--aa" else "dfs-postorder+score"
    with pytest.raises(SystemExit) as exc:
        main(["verify", BIGLOOP, "--max-nodes", "20", option, value])
    assert exc.value.code == EXIT_USAGE
    assert option in capsys.readouterr().err
    # `--aa` is not taken as an abbreviation of `--aa-out`.
    assert given.read_text() == FULL_AA_TEXT


def test_verify_config_asking_for_scores_is_a_usage_error(capsys):
    config = RunConfig(command="verify", program=DEADBRANCH,
                       strategy="dfs-postorder+score")
    assert run(config) == EXIT_USAGE
    assert "score" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "cover-under"])
def test_a_config_with_an_unknown_strategy_is_a_usage_error(command, capsys):
    config = RunConfig(command=command, program=DEADBRANCH,
                       aa_in=str(GOLDENS / "trivial_true.aa"),
                       strategy="random")
    assert run(config) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--strategy" in captured.err and "'random'" in captured.err
    assert "internal error" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "cover-exact", "score"])
def test_a_config_with_an_unknown_format_is_a_usage_error(command, capsys):
    # Any format but "structured" used to print text.
    config = RunConfig(command=command, program=DEADBRANCH,
                       aa_in=str(GOLDENS / "trivial_true.aa"), format="xml")
    assert run(config) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--format" in captured.err and "'xml'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["cover-exact", "cover-under", "score"])
def test_a_config_without_an_automaton_is_a_usage_error(command, capsys):
    # The parser requires --aa; a library caller's config can leave it out.
    config = RunConfig(command=command, program=DEADBRANCH)
    assert run(config) == EXIT_USAGE
    assert f"error: {command} requires --aa" in capsys.readouterr().err


def test_nonpositive_cex_budget_is_usage_error(capsys):
    assert main(["verify", DEADBRANCH, "--max-cex", "0"]) == EXIT_USAGE
    assert "--max-cex" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "cover-exact", "cover-under"])
@pytest.mark.parametrize("value", ["nan", "NaN", "-nan"])
def test_nan_time_limit_is_usage_error(command, value, tmp_path, capsys):
    out_aa = tmp_path / "out.aa"
    extra = (["--aa-out", str(out_aa)] if command == "verify"
             else ["--aa", _full_aa_file(tmp_path)])
    code = main([command, DEADBRANCH, f"--time-limit={value}", *extra])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: --time-limit must be a number, not nan\n"
    assert not out_aa.exists()


@pytest.mark.parametrize("value", ["inf", "0", "-1"])
def test_infinite_or_nonpositive_time_limit_is_unlimited(value, capsys):
    assert run(RunConfig(command="verify", program=DEADBRANCH)) == EXIT_OK
    default = capsys.readouterr()
    assert main(["verify", DEADBRANCH, f"--time-limit={value}"]) == EXIT_OK
    assert capsys.readouterr() == default


def test_empty_nondet_range_is_usage_error(tmp_path, capsys):
    aa = _full_aa_file(tmp_path)
    code = main(["cover-exact", DEADBRANCH, "--aa", aa,
                 "--nondet-min", "3", "--nondet-max", "-3"])
    assert code == EXIT_USAGE
    assert "--nondet-min" in capsys.readouterr().err


def test_a_domain_longer_than_a_range_allows_is_usage_error(capsys):
    # -2**62..2**62 holds sys.maxsize + 2 values.  A range of them has no
    # len(), so the first witness search would end in an internal error.
    bound = str((sys.maxsize + 1) // 2)
    code = main(["cover-exact", DEADBRANCH, "--aa",
                 str(GOLDENS / "trivial_true.aa"), "--nondet-min", "-" + bound,
                 "--nondet-max", bound])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --nondet-min..--nondet-max may span at most {sys.maxsize}"
        f" values\n")


def _run_capped(argv, limit=10**9):
    """The CLI in a child process whose address space alone is capped at
    `limit` bytes."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "vericov", *argv],
                          capture_output=True, text=True, preexec_fn=cap)


@pytest.mark.parametrize("command, wide_exit", [
    (["verify", DEADBRANCH, "--max-nodes", "10"], EXIT_USAGE),
    # skip_stmts.c calls no nondet(): over 2e9 values, deadbranch.c's
    # refuted guard is searched to the step limit, which takes seconds.
    (["cover-exact", SKIP_STMTS, "--aa", str(GOLDENS / "trivial_true.aa"),
      "--max-nodes", "10"], EXIT_OK),
], ids=["verify", "cover-exact"])
def test_a_wide_nondet_domain_is_never_an_internal_error(command, wide_exit):
    # A list of 2e9 values needs 16 GB; the domain must stay a range.
    wide = _run_capped(command + ["--nondet-min", "-1000000000",
                                  "--nondet-max", "1000000000"])
    assert wide.returncode == wide_exit, wide.stderr
    assert "internal error" not in wide.stderr
    # More values than sys.maxsize: a range that long has no len().
    wider = _run_capped(command + ["--nondet-min", str(-10**19),
                                   "--nondet-max", str(10**19)])
    assert wider.returncode == EXIT_USAGE
    assert wider.stderr == (f"error: --nondet-min..--nondet-max may span"
                            f" at most {sys.maxsize} values\n")


def test_malformed_automaton_is_usage_error(tmp_path, capsys):
    aa = tmp_path / "broken.aa"
    aa.write_text("AUTOMATON x\nINITIAL q0\n")
    assert main(["cover-exact", DEADBRANCH, "--aa", str(aa)]) == EXIT_USAGE
    assert "missing END" in capsys.readouterr().err


def test_foreign_automaton_is_usage_error(tmp_path, capsys):
    aa = tmp_path / "foreign.aa"
    aa.write_text("AUTOMATON f\nINITIAL q0\nSTATE q0 @L0\n"
                  "  ON 42 -> __TRUE\nEND\n")
    code = main(["cover-exact", DEADBRANCH, "--aa", str(aa)])
    assert code == EXIT_USAGE
    assert "statement id" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("command", ["cover-exact", "cover-under"])
@pytest.mark.parametrize("options", [
    ["--max-cex", "0"],
    ["--nondet-min", "5", "--nondet-max", "1"],
    ["--time-limit", "nan"],
], ids=["max-cex", "nondet-range", "time-limit"])
def test_foreign_automaton_is_reported_before_bad_option_values(
        tmp_path, capsys, command, options):
    # Errors come in this order: the program, the automaton's format, its
    # statement ids, then option values.
    aa = tmp_path / "foreign.aa"
    aa.write_text("AUTOMATON f\nINITIAL q0\nSTATE q0 @L0\n"
                  "  ON 42 -> __TRUE\nEND\n")
    code = main([command, DEADBRANCH, "--aa", str(aa), *options])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: automaton 'f' refers to unknown statement ids [42]\n")


@pytest.mark.parametrize("command", [
    ["cover-exact"], ["cover-under"],
    ["cover-under", "--strategy", "dfs-postorder+score"], ["score"],
], ids=["cover-exact", "cover-under", "cover-under-score", "score"])
def test_each_command_checks_the_automaton_ids_once(tmp_path, capsys,
                                                    monkeypatch, command):
    checks = 0
    check = automaton.check_alphabet

    def counted(*args):
        nonlocal checks
        checks += 1
        return check(*args)

    # The coverage module calls the binding it imported.
    monkeypatch.setattr(automaton, "check_alphabet", counted)
    monkeypatch.setattr(coverage, "check_alphabet", counted)
    name, options = command[0], command[1:]
    aa = tmp_path / "ids.aa"
    aa.write_text("AUTOMATON ids\nINITIAL q0\nSTATE q0 @L0\n"
                  "  ON 0 -> __TRUE\nEND\n")
    assert main([name, DEADBRANCH, "--aa", str(aa), *options]) == EXIT_OK
    assert checks == 1
    capsys.readouterr()
    aa.write_text("AUTOMATON f\nINITIAL q0\nSTATE q0 @L0\n"
                  "  ON 42 -> __TRUE\nEND\n")
    assert main([name, DEADBRANCH, "--aa", str(aa), *options]) == EXIT_USAGE
    assert checks == 2
    assert capsys.readouterr() == (
        "", "error: automaton 'f' refers to unknown statement ids [42]\n")


@pytest.mark.parametrize("command", [
    ["cover-exact"], ["cover-under"], ["score"],
])
def test_duplicate_on_line_is_usage_error(tmp_path, capsys, command):
    aa = tmp_path / "dup.aa"
    aa.write_text("AUTOMATON d\nINITIAL q0\nSTATE q0 @L0\n"
                  "  ON 0 -> __TRUE\n  ON 0 -> __FALSE\nEND\n")
    code = main([command[0], DEADBRANCH, "--aa", str(aa), *command[1:]])
    assert code == EXIT_USAGE
    assert "line 5" in capsys.readouterr().err


# Two-phase flow ---------------------------------------------------------------


def test_verify_then_cover_flow(tmp_path, capsys):
    out_aa = tmp_path / "cond.aa"
    assert main(["verify", BIGLOOP, "--max-nodes", "300",
                 "--aa-out", str(out_aa)]) == EXIT_OK
    capsys.readouterr()

    assert main(["cover-exact", BIGLOOP, "--aa", str(out_aa),
                 "--max-nodes", "500"]) == EXIT_OK
    exact_out = capsys.readouterr().out
    assert "statements covered: 0/7" in exact_out

    assert main(["cover-under", BIGLOOP, "--aa", str(out_aa),
                 "--max-nodes", "500"]) == EXIT_OK
    under_out = capsys.readouterr().out
    assert "statements covered: 0/7" in under_out

    assert main(["score", BIGLOOP, "--aa", str(out_aa)]) == EXIT_OK
    assert capsys.readouterr().out.strip()


def test_safe_verify_gives_full_over_approximation(tmp_path, capsys):
    out_aa = tmp_path / "deadbranch.aa"
    assert main(["verify", DEADBRANCH, "--aa-out", str(out_aa)]) == EXIT_OK
    capsys.readouterr()
    assert main(["cover-exact", DEADBRANCH, "--aa", str(out_aa)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "statements covered: 6/8" in out
    assert "coverage: 0.750000" in out
    assert "covered ids: 0 1 2 5 6 7" in out


def test_program_stem_with_whitespace_round_trips(tmp_path, capsys):
    program = tmp_path / "my prog.c"
    program.write_text((FIXTURES / "deadbranch.c").read_text())
    out_aa = tmp_path / "o.aa"
    assert main(["verify", str(program), "--aa-out", str(out_aa)]) == EXIT_OK
    capsys.readouterr()
    assert out_aa.read_text().startswith("AUTOMATON my_prog\n")
    assert main(["cover-exact", str(program), "--aa", str(out_aa)]) == EXIT_OK
    assert "covered ids: 0 1 2 5 6 7" in capsys.readouterr().out
    assert main(["score", str(program), "--aa", str(out_aa)]) == EXIT_OK
    assert capsys.readouterr().out.strip()


def test_cover_under_reports_bug_with_exit_one(tmp_path, capsys):
    code = main(["cover-under", TINYLOOP_BUG, "--aa", _full_aa_file(tmp_path)])
    assert code == EXIT_BUG
    assert "bug found: yes" in capsys.readouterr().out


def test_score_prints_states_highest_first(capsys):
    assert main(["score", BIGLOOP, "--aa", PARTIAL_AA]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["q0 6", "q1 5", "q2 3", "q4 2", "q3 1"]


# Structured output ------------------------------------------------------------


def test_structured_verify_payload(tmp_path, capsys):
    out_aa = tmp_path / "a.aa"
    code = main(["verify", ASSERT_NONDET, "--format", "structured",
                 "--aa-out", str(out_aa)])
    assert code == EXIT_BUG
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "counterexamples"
    assert payload["counterexamples"] == [
        {"statements": [0, 1], "witness": {"0": 1}}]
    assert payload["automaton_written"] == str(out_aa)
    assert payload["nodes_created"] >= 2


def test_structured_cover_report_is_byte_stable(tmp_path, capsys):
    aa = _full_aa_file(tmp_path)
    outputs = []
    for _ in range(2):
        assert main(["cover-exact", DEADBRANCH, "--aa", aa,
                     "--format", "structured"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["mode"] == "exact"
    assert payload["covered_ids"] == [0, 1, 2, 5, 6, 7]
    assert list(payload) == [
        "program", "mode", "total_statements", "covered_count", "value",
        "executions_used", "bug_found", "exhausted", "covered_ids",
        "per_execution"]


def test_structured_score_orders_mapping_by_rank(capsys):
    assert main(["score", BIGLOOP, "--aa", PARTIAL_AA,
                 "--format", "structured"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["program"] == "bigloop"
    assert list(payload["scores"].items()) == [
        ("q0", 6), ("q1", 5), ("q2", 3), ("q4", 2), ("q3", 1)]


def _reference_score_report(program, aa_path):
    """The structured score report as json.dumps(payload, indent=2) writes
    it, from heuristic.score."""
    cfa = source_to_cfa(program.read_text(encoding="utf-8"),
                        name=program.stem)
    aa = automaton.parse_aa(aa_path.read_text(encoding="utf-8"))
    scores = heuristic.score(aa, cfa)
    ordered = sorted(aa.states, key=lambda s: -scores.get(s, 0))
    payload = {"program": cfa.name,
               "scores": {s: scores.get(s, 0) for s in ordered}}
    return json.dumps(payload, indent=2) + "\n"


def _assert_score_report_bytes(program, aa_path, capsys):
    assert main(["score", str(program), "--aa", str(aa_path),
                 "--format", "structured"]) == EXIT_OK
    assert capsys.readouterr().out == \
        _reference_score_report(program, aa_path)


@pytest.mark.parametrize("strategy", ["bfs", "dfs-postorder"])
def test_structured_score_bytes_on_emitted_automata(strategy, tmp_path,
                                                    capsys):
    aa_path = tmp_path / "run.aa"
    for program in sorted(FIXTURES.glob("*.c")):
        main(["verify", str(program), "--max-nodes", "60",
              "--strategy", strategy, "--aa-out", str(aa_path)])
        capsys.readouterr()
        _assert_score_report_bytes(program, aa_path, capsys)


# Names with a quote, a backslash, non-ASCII letters and control
# characters, which the encoder must escape; "qdead" is never reached.
ODD_NAMES_AA = ("AUTOMATON odd\"\\name\n"
                "INITIAL q\"0\n"
                "STATE q\"0 @L0\n  ON 0 -> q\\1\n"
                "STATE q\\1 @L2\n  ON 1 -> q\u00e9\u00df\U0001f600\n"
                "STATE q\u00e9\u00df\U0001f600 @L3\n  ON 2 -> q\x01\x1b\x7f\n"
                "STATE q\x01\x1b\x7f @L1\n"
                "STATE qdead @L3\n"
                "END\n")


@pytest.mark.parametrize("aa_text", [ODD_NAMES_AA, FULL_AA_TEXT],
                         ids=["odd-names", "empty-scores"])
def test_structured_score_bytes_with_escaped_names(aa_text, tmp_path,
                                                   capsys):
    program = tmp_path / "p\"r\\og\u00e9\x01\x7f.c"
    program.write_text("int main() { int a = 1; a = 2; return 0; }\n",
                       encoding="utf-8")
    aa_path = tmp_path / "odd.aa"
    aa_path.write_text(aa_text, encoding="utf-8")
    _assert_score_report_bytes(program, aa_path, capsys)


# Configuration API ------------------------------------------------------------


def test_run_config_defaults():
    config = RunConfig(command="verify", program="p.c")
    assert config.time_limit == 900.0
    assert config.max_nodes == 0
    assert config.max_cex == 10
    assert config.strategy == "dfs-postorder"
    assert (config.nondet_min, config.nondet_max) == (-8, 8)
    assert config.format == "text"


BUDGET_OPTIONS = ["--time-limit", "--max-nodes", "--max-cex", "--nondet-min",
                  "--nondet-max"]


def test_option_strings_of_each_subcommand():
    options = {name: [s for a in p._actions for s in a.option_strings]
               for name, p in _subparsers(build_parser()).items()}
    assert options == {
        "cfa-dump": ["-h", "--help"],
        "verify": ["-h", "--help", "--strategy", "--aa-out", *BUDGET_OPTIONS,
                   "--format"],
        "cover-exact": ["-h", "--help", "--aa", *BUDGET_OPTIONS, "--format"],
        "cover-under": ["-h", "--help", "--aa", "--strategy", *BUDGET_OPTIONS,
                        "--format"],
        "score": ["-h", "--help", "--aa", "--format"],
    }


def test_config_from_args_copies_everything():
    args = build_parser().parse_args(
        ["cover-under", "p.c", "--aa", "c.aa", "--strategy", "bfs",
         "--max-nodes", "7", "--max-cex", "3", "--time-limit", "1.5",
         "--nondet-min", "0", "--nondet-max", "2", "--format", "structured"])
    config = config_from_args(args)
    assert config.command == "cover-under"
    assert config.program == "p.c"
    assert config.aa_in == "c.aa"
    assert config.strategy == "bfs"
    assert config.max_nodes == 7
    assert config.max_cex == 3
    assert config.time_limit == 1.5
    assert (config.nondet_min, config.nondet_max) == (0, 2)
    assert config.format == "structured"


def test_run_with_config_object(tmp_path, capsys):
    aa = _full_aa_file(tmp_path)
    config = RunConfig(command="cover-exact", program=DEADBRANCH, aa_in=aa)
    assert run(config) == EXIT_OK
    assert "statements covered: 6/8" in capsys.readouterr().out


def test_unknown_internal_state_maps_to_internal_error(capsys):
    config = RunConfig(command="no-such-command", program=DEADBRANCH)
    assert run(config) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_closed_output_pipe_is_not_an_error(monkeypatch, capsys):
    class _ClosedPipe:
        def write(self, _text):
            raise BrokenPipeError()

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(RunConfig(command="cfa-dump", program=BIGLOOP)) == EXIT_OK
    assert capsys.readouterr().err == ""


# One parser per process ------------------------------------------------------


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["cfa-dump", BIGLOOP]) == EXIT_OK
    assert main(["verify", DEADBRANCH]) == EXIT_OK
    assert len(built) == 1
    assert capsys.readouterr().out.startswith(golden("bigloop.dump") * 3)


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()
    assert build_parser() is not cli._parser()


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c", "import vericov.cli as c;"
                               " print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "0\n"


def test_options_do_not_carry_over_between_calls(capsys):
    assert run(RunConfig(command="verify", program=DEADBRANCH)) == EXIT_OK
    default = capsys.readouterr()
    assert main(["verify", DEADBRANCH, "--strategy", "bfs",
                 "--max-nodes", "7"]) == EXIT_USAGE
    assert capsys.readouterr() != default
    assert main(["verify", DEADBRANCH]) == EXIT_OK
    assert capsys.readouterr() == default


def test_usage_error_between_calls_changes_nothing(capsys):
    bad = ["verify", BIGLOOP, "--strategy", "random"]
    with pytest.raises(SystemExit) as fresh:
        build_parser().parse_args(bad)
    usage = capsys.readouterr()
    assert main(["cfa-dump", BIGLOOP]) == EXIT_OK
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == fresh.value.code == EXIT_USAGE
    assert capsys.readouterr() == usage
    assert main(["cfa-dump", BIGLOOP]) == EXIT_OK
    assert capsys.readouterr() == first


@pytest.mark.parametrize("command", [None, "cfa-dump", "verify",
                                     "cover-exact", "cover-under", "score"])
def test_help_text_matches_a_fresh_parser(command, capsys):
    fresh = build_parser()
    expected = (fresh if command is None
                else _subparsers(fresh)[command]).format_help()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out == expected


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "vericov", "cfa-dump", BIGLOOP],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == golden("bigloop.dump")
