"""The memory an exploration tree takes per node.

`explore` runs while `tracemalloc` traces allocations; the peak above the
traced memory before the call, divided by the nodes it creates, is the
cost of one node.  Two inputs:

* `bigloop.c`, a concrete counting loop whose every iteration is a new
  abstract state, at 20,000 nodes;
* a loop whose body asserts on a nondet() value, at 300 nodes.  Each
  iteration's assert edge runs a witness search along a path one
  iteration longer than the last, so a record that kept every searched
  path would grow with the square of the nodes.

Run it as a script to print both figures:

    PYTHONPATH=src python tests/test_tree_memory.py
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

from vericov import Budget, Cfa, Spec, explore, source_to_cfa

sys.path.insert(0, str(Path(__file__).parent))
from conftest import fixture_cfa  # noqa: E402

NODES = 20_000
ASSERT_IN_LOOP_NODES = 300
MAX_BYTES_PER_NODE = 300

ASSERT_IN_LOOP = """int nondet();
int main() {
  int x = nondet();
  int i = 0;
  while (i < 1000000) {
    assert(x != i + 100);
    i = i + 1;
  }
  return 0;
}
"""


def bytes_per_node(cfa: Cfa, nodes: int) -> float:
    explore(cfa, Spec.assertions(), Budget(max_nodes=50))  # CFA analyses
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = explore(cfa, Spec.assertions(), Budget(max_nodes=nodes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.art_stats.nodes_created == nodes
    return (peak - before) / nodes


def bigloop_bytes_per_node() -> float:
    return bytes_per_node(fixture_cfa("bigloop.c"), NODES)


def assert_in_loop_bytes_per_node() -> float:
    return bytes_per_node(source_to_cfa(ASSERT_IN_LOOP), ASSERT_IN_LOOP_NODES)


def test_explore_peaks_below_the_bytes_per_node_bound():
    assert bigloop_bytes_per_node() <= MAX_BYTES_PER_NODE


def test_an_assert_in_a_loop_peaks_below_the_bytes_per_node_bound():
    assert assert_in_loop_bytes_per_node() <= MAX_BYTES_PER_NODE


if __name__ == "__main__":
    print(f"bigloop.c: {bigloop_bytes_per_node():.1f} B/node"
          f" (bound {MAX_BYTES_PER_NODE}, {NODES} nodes)")
    print(f"assert in a loop: {assert_in_loop_bytes_per_node():.1f} B/node"
          f" (bound {MAX_BYTES_PER_NODE}, {ASSERT_IN_LOOP_NODES} nodes)")
