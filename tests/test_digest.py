"""One sha256 per command-line run over every fixture, pinned in a golden.

For each fixture, node budget and `verify` strategy, seven runs: `verify`
in text and in structured format (both saving the automaton), then on that
automaton `cover-exact`, `cover-under` under each strategy, and `score`.
A run's digest hashes its exit code, its stdout and, for `verify`, the
automaton it wrote.  The runs work in a temporary directory under fixed
relative file names, so `automaton written to` lines are the same
everywhere.  Regenerate the golden with

    PYTHONPATH=src python tests/test_digest.py > tests/goldens/fixture_runs.json
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from vericov.cli import main

sys.path.insert(0, str(Path(__file__).parent))
from conftest import ALL_FIXTURES, FIXTURES, GOLDENS  # noqa: E402

GOLDEN = GOLDENS / "fixture_runs.json"
NODE_BUDGETS = ("60", "400")
VERIFY_STRATEGIES = ("bfs", "dfs-postorder")
COVER_STRATEGIES = ("bfs", "dfs-postorder", "dfs-postorder+score")
AA = "run.aa"


def _digest(argv):
    """sha256 of one run's exit code, stdout and written automaton."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    h = hashlib.sha256(f"{code}\n{out.getvalue()}".encode())
    if argv[0] == "verify":
        h.update(b"\0" + Path(AA).read_bytes())
    return h.hexdigest()


def _runs():
    """(name, argv) of every run, in the order they must execute: each
    fixture's cover and score runs read the automaton its `verify` wrote."""
    for name in ALL_FIXTURES:
        program = str(FIXTURES / name)
        for nodes in NODE_BUDGETS:
            budget = ["--max-nodes", nodes]
            for strategy in VERIFY_STRATEGIES:
                prefix = f"{name} {nodes} {strategy}"
                verify = ["verify", program, "--strategy", strategy,
                          "--aa-out", AA, *budget]
                yield f"{prefix} verify text", verify
                yield (f"{prefix} verify structured",
                       verify + ["--format", "structured"])
                yield (f"{prefix} cover-exact",
                       ["cover-exact", program, "--aa", AA, *budget])
                for cover in COVER_STRATEGIES:
                    yield (f"{prefix} cover-under {cover}",
                           ["cover-under", program, "--aa", AA,
                            "--strategy", cover, *budget])
                yield f"{prefix} score", ["score", program, "--aa", AA]


def digests():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return {run: _digest(argv) for run, argv in _runs()}
        finally:
            os.chdir(cwd)


def test_fixture_runs_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    differing = sorted(run for run in expected.keys() | got.keys()
                       if expected.get(run) != got.get(run))
    assert not differing, f"{len(differing)} runs differ: {differing[:20]}"
    assert len(got) == 756


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
