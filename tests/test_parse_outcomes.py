"""One sha256 over the parse outcomes of a seeded corpus, pinned in a golden.

The corpus is every fixture and a list of hand-written lexical edge cases,
each as written and under `MUTATIONS` seeded `mutated_source` edits.  A
source's outcome is the `repr` of the program `parse_program` builds, or
the type and message of the error it raises; a `ParseError` message
carries `line:col`.  Regenerate the golden with

    PYTHONPATH=src python tests/test_parse_outcomes.py > tests/goldens/parse_outcomes.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from vericov.lang import ParseError, UndeclaredVariable, parse_program

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (ALL_FIXTURES, GOLDENS, fixture_source,  # noqa: E402
                      mutated_source)

GOLDEN = GOLDENS / "parse_outcomes.json"
SEED = 12
MUTATIONS = 300

_MAIN = "int main() {\n  int x = 1;\n%s\n  return x;\n}\n"

EDGE_CASES = [
    _MAIN % "  // a /* b\n  x = 2;",             # `/*` inside `//`
    _MAIN % "  /* a // b */ x = 2;",             # `//` inside `/* */`
    "#include /* x\n" + _MAIN % "  x = 2;",      # a `#` line holding `/*`
    _MAIN % "  x = 2; # a /* b\n  x = 3;",
    "int main()\r\n{\r\n\tint x = 1;\r\n\tx = x\t+ 2;\r\n\treturn x;\r\n}\r\n",
    _MAIN % "  int x² = 2;",                 # `²` continues an identifier
    _MAIN % "  int ²x = 2;",                 # but cannot start one
    _MAIN % "  x = 1١;",                     # an Arabic-Indic digit
    _MAIN % "  x = x & 1;",                       # a lone `&`
    _MAIN % "  x = 2;\x0b",                       # a vertical tab
    _MAIN % "  /* open\n  x = @;",                # unterminated, then bad
    _MAIN % "  x = @;\n  /* open",                # bad, then unterminated
    _MAIN % "  x = 2;   \t \r",                   # trailing blanks
    "int main() { /* a\n b */ x; }  \n\t",
    "",
    "   \n\t\n",
    "int main() { return 0; }",                   # no final newline
]


def _outcome(source: str) -> str:
    try:
        return repr(parse_program(source))
    except (ParseError, UndeclaredVariable) as e:
        return f"{type(e).__name__}: {e}"


def _corpus():
    rng = random.Random(SEED)
    for base in [fixture_source(name) for name in ALL_FIXTURES] + EDGE_CASES:
        yield base
        for _ in range(MUTATIONS):
            yield mutated_source(rng, base) if base else base


def digest() -> dict:
    h = hashlib.sha256()
    sources = 0
    for source in _corpus():
        h.update(_outcome(source).encode() + b"\0")
        sources += 1
    return {"sources": sources, "sha256": h.hexdigest()}


def test_parse_outcomes_match_golden():
    assert digest() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digest(), indent=1) + "\n")
