"""One sha256 over the CFA dumps of the parse-outcome corpus, pinned in a golden.

Every source of `test_parse_outcomes._corpus()` that parses is lowered,
checked with `Cfa.validate` and dumped with `dump_cfa`; sources that do
not parse are skipped.  The golden
pins lowering (node and statement numbering, guard pairs, halt edges) and
the dump's text together.  Regenerate it with

    PYTHONPATH=src python tests/test_dump_outcomes.py > tests/goldens/dump_outcomes.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from vericov.cfa import dump_cfa
from vericov.lang import ParseError, UndeclaredVariable, parse_program
from vericov.lowering import lower

sys.path.insert(0, str(Path(__file__).parent))
from conftest import GOLDENS  # noqa: E402
from test_parse_outcomes import _corpus  # noqa: E402

GOLDEN = GOLDENS / "dump_outcomes.json"


def digest() -> dict:
    h = hashlib.sha256()
    programs = 0
    for source in _corpus():
        try:
            program = parse_program(source)
        except (ParseError, UndeclaredVariable):
            continue
        cfa = lower(program)
        cfa.validate()
        h.update(dump_cfa(cfa).encode() + b"\0")
        programs += 1
    return {"programs": programs, "sha256": h.hexdigest()}


def test_dump_outcomes_match_golden():
    assert digest() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digest(), indent=1) + "\n")
