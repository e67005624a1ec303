"""The memory an exploration tree takes per node.

`explore` on `bigloop.c`, a concrete counting loop whose every iteration
is a new abstract state, creates 20,000 nodes while `tracemalloc` traces
allocations; the peak above the traced memory before the call, divided by
the nodes, is the cost of one node.  Run it as a script to print that
figure:

    PYTHONPATH=src python tests/test_tree_memory.py
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

from vericov import Budget, Spec, explore

sys.path.insert(0, str(Path(__file__).parent))
from conftest import fixture_cfa  # noqa: E402

NODES = 20_000
MAX_BYTES_PER_NODE = 300


def bytes_per_node() -> float:
    cfa = fixture_cfa("bigloop.c")
    explore(cfa, Spec.assertions(), Budget(max_nodes=50))  # CFA analyses
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = explore(cfa, Spec.assertions(), Budget(max_nodes=NODES))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.art_stats.nodes_created == NODES
    return (peak - before) / NODES


def test_explore_peaks_below_the_bytes_per_node_bound():
    assert bytes_per_node() <= MAX_BYTES_PER_NODE


if __name__ == "__main__":
    print(f"{bytes_per_node():.1f} B/node"
          f" (bound {MAX_BYTES_PER_NODE}, {NODES} nodes)")
