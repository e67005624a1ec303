"""The memory `score` takes per product state.

`score` runs while `tracemalloc` traces allocations; the peak above the
traced memory before the call, divided by the states of the product it
builds, is the cost of one state.  The input is the automaton an
interrupted run leaves on a 2,000-assignment straight-line program: its
product is one chain, so every state reaches every location after it, and
reach sets kept as one set per state would grow with the square of the
states.

Run it as a script to print the figure:

    PYTHONPATH=src python tests/test_score_memory.py
"""

from __future__ import annotations

import tracemalloc

from vericov import Budget, Spec, compose, explore, score, source_to_cfa

ASSIGNMENTS = 2_000
MAX_BYTES_PER_STATE = 2_000


def chain_source(assignments: int) -> str:
    body = "".join(f"  a = {i};\n" for i in range(assignments))
    return "int main() {\n  int a = 0;\n" + body + "  return 0;\n}\n"


def bytes_per_state(assignments: int = ASSIGNMENTS) -> float:
    cfa = source_to_cfa(chain_source(assignments))
    aa = explore(cfa, Spec.assertions(), Budget(max_nodes=assignments)).aa
    states = len(compose(aa, cfa).states)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        score(aa, cfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - before) / states


def test_score_peaks_below_the_bytes_per_state_bound():
    assert bytes_per_state() <= MAX_BYTES_PER_STATE


if __name__ == "__main__":
    print(f"score on a straight-line chain: {bytes_per_state():.1f} B/state"
          f" (bound {MAX_BYTES_PER_STATE}, {ASSIGNMENTS} assignments)")
