"""One sha256 over the `parse_aa` outcomes of a seeded corpus, pinned in a
golden.

The corpus is every golden automaton, the automaton `verify` writes for
each fixture at the node budgets and strategies of `test_digest.py`, and a
list of hand-written edge cases, each as written and under `MUTATIONS`
seeded edits.  An input's outcome is the canonical `serialize_aa` text of
the automaton `parse_aa` builds, or the line and message of the
`FormatError` it raises.  Regenerate the golden with

    PYTHONPATH=src python tests/test_aa_outcomes.py > tests/goldens/aa_outcomes.json
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from vericov.automaton import FormatError, parse_aa, serialize_aa
from vericov.cli import main

sys.path.insert(0, str(Path(__file__).parent))
from conftest import ALL_FIXTURES, FIXTURES, GOLDENS  # noqa: E402
from test_digest import NODE_BUDGETS, VERIFY_STRATEGIES  # noqa: E402
from test_robustness import _mutated_automaton  # noqa: E402

GOLDEN = GOLDENS / "aa_outcomes.json"
SEED = 15
MUTATIONS = 40

_HEAD = "AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n"

EDGE_CASES = [
    "",
    "   \n\t\n# only a comment\n",
    "AUTOMATON a\r\nINITIAL q0\r\nSTATE q0 @L0\r\n  ON 0 -> __TRUE\r\nEND\r\n",
    "AUTOMATON a\nINITIAL q0\nSTATE q0 @L0\n  ON 0 ->\x0b__TRUE\nEND\n",
    "AUTOMATON a\x0cINITIAL q0\x85STATE q0 @L0 ON 0 -> q0\nEND",
    "AUTOMATON a\nINITIAL q0\nSTATE\tq0\t@L0\n\tON\t0\t->\t__TRUE\nEND\n",
    "AUTOMATON a\nINITIAL q0\nSTATE q0\xa0@L0\n  ON 0 -> __TRUE\nEND\n",
    _HEAD + "END\ntrailing text\n",
    _HEAD + "END\n# a comment after END\n\n",
    _HEAD + "END\nEND\n",
    _HEAD + "  ON +5 -> q0\nEND\n",
    _HEAD + "  ON 1_0 -> q0\nEND\n",
    _HEAD + "  ON ٣ -> q0\nEND\n",
    _HEAD + "  ON -1 -> q0\nEND\n",
    _HEAD + "  ON x -> q0\nEND\n",
    _HEAD + "  ON 1 => q0\nEND\n",
    _HEAD + "  ON 1 -> q0 # a trailing comment\nEND\n",
    _HEAD + "  ON 1 -> __FALSE\n  ON 2 -> __TRUE\nEND\n",
    "AUTOMATON a\nINITIAL q0\nSTATE q0 @L-1\nEND\n",
    "AUTOMATON a\nINITIAL q0\nSTATE q0 @L\nEND\n",
    "AUTOMATON a\nINITIAL q0\nSTATE q0 @Lx\nEND\n",
    "AUTOMATON a\nINITIAL q0\nSTATE q0 L0\nEND\n",
    "AUTOMATON a\nINITIAL q0\nSTATE q0 @L0 extra\nEND\n",
    "AUTOMATON a\nINITIAL q0\n  ON 0 -> q0\nSTATE q0 @L0\nEND\n",
    _HEAD + "STATE __FALSE @L1\nEND\n",
    _HEAD + "STATE __TRUE @L1\nEND\n",
    _HEAD + "STATE q0 @L1\nEND\n",
    _HEAD + "  ON 0 -> q0\n  ON 0 -> __TRUE\nEND\n",
    _HEAD + "  ON 0 -> ghost\n  ON 1 -> q0\n  ON 2 -> ghost\n"
    "STATE q1 @L2\n  ON 0 -> ghost\nEND\n",
    _HEAD + "# ON 0 -> ghost\n  ON 1 -> spook\n  ON 2 -> ghost\nEND\n",
    "AUTOMATON a\nINITIAL ghost\nSTATE q0 @L0\n  ON 0 -> spook\nEND\n",
    "AUTOMATON a\nINITIAL __TRUE\nEND\n",
    "AUTOMATON a\nINITIAL __FALSE\nSTATE q0 @L0\nEND\n",
    "AUTOMATON my prog\nINITIAL __TRUE\nEND\n",
    "AUTOMATON\nINITIAL __TRUE\nEND\n",
    "AUTOMATON a\nAUTOMATON b\nINITIAL __TRUE\nEND\n",
    "INITIAL q0\nAUTOMATON a\nEND\n",
    "AUTOMATON a\nINITIAL q0\nINITIAL q0\nEND\n",
    "AUTOMATON a\nINITIAL q0 q1\nEND\n",
    "AUTOMATON a\nSTATE q0 @L0\nEND\n",
    "AUTOMATON a\nEND\n",
    "AUTOMATON a\nINITIAL __TRUE\n",
    "INITIAL __TRUE\nEND\n",
    "AUTOMATON a\nINITIAL __TRUE\nFINAL q0\nEND\n",
    "AUTOMATON a\nINITIAL __TRUE\non 0 -> q0\nEND\n",
    "  # indented comment\n#\nAUTOMATON a\nINITIAL __TRUE\nEND",
]


def _outcome(text: str) -> str:
    try:
        return serialize_aa(parse_aa(text))
    except FormatError as e:
        return f"FormatError {e.line}: {e.message}"


def _emitted():
    """The automaton `verify` writes for each fixture, budget and
    strategy."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name in ALL_FIXTURES:
                for nodes in NODE_BUDGETS:
                    for strategy in VERIFY_STRATEGIES:
                        with redirect_stdout(io.StringIO()), \
                                redirect_stderr(io.StringIO()):
                            main(["verify", str(FIXTURES / name),
                                  "--strategy", strategy, "--aa-out", "o.aa",
                                  "--max-nodes", nodes])
                        yield Path("o.aa").read_text()
        finally:
            os.chdir(cwd)


_CHARS = " \t\r\n\x0b\x85#-_0159@L>q"


def _mutated(rng: random.Random, text: str) -> str:
    """Line edits of INITIAL, STATE and ON lines when the text has enough
    STATE lines and no blank one, then one character deleted or
    inserted."""
    lines = text.splitlines()
    if all(line.split() for line in lines) and \
            sum(line.startswith("STATE") for line in lines) >= 3:
        text = _mutated_automaton(rng, text)
    i = rng.randrange(len(text) + 1)
    if text and rng.random() < 0.5:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(_CHARS) + text[i:]


def _corpus():
    rng = random.Random(SEED)
    goldens = [p.read_text() for p in sorted(GOLDENS.glob("*.aa"))]
    for base in [*goldens, *_emitted(), *EDGE_CASES]:
        yield base
        for _ in range(MUTATIONS):
            yield _mutated(rng, base)


def digest() -> dict:
    h = hashlib.sha256()
    inputs = 0
    for text in _corpus():
        h.update(_outcome(text).encode() + b"\0")
        inputs += 1
    return {"inputs": inputs, "sha256": h.hexdigest()}


def test_aa_outcomes_match_golden():
    assert digest() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digest(), indent=1) + "\n")
