"""The memory an exploration tree takes per node.

`explore` runs while `tracemalloc` traces allocations; the peak above the
traced memory before the call, divided by the nodes it creates, is the
cost of one node.  Three inputs:

* `bigloop.c`, a concrete counting loop whose every iteration is a new
  abstract state, at 20,000 nodes, bounded at 250 B/node;
* a loop whose body asserts on a nondet() value, at 300 nodes, bounded at
  300 B/node.  Each iteration's assert edge runs a witness search along a
  path one iteration longer than the last, so a record that kept every
  searched path would grow with the square of the nodes.  It is measured
  in a fresh process: the search's plan steps are 3-tuples, which CPython
  takes from its tuple free list where it can, and tracemalloc does not
  see those, so in a process where earlier work freed many 3-tuples the
  figure read about 50 B/node lower.
* a cover-mode explore of `bigloop.c` under the automaton of its
  3,000-node `verify`, at 2,000 nodes, bounded at 300 B/node.  Every
  node inside the automaton's region tracks the statements on its path
  in, and after one loop iteration no statement is new; a node whose
  statement is already tracked shares its parent's set, so the tree
  holds a handful of distinct sets.  A new, equal set per node read
  about 670 B/node.

Run it as a script to print the three figures, and a fourth: how much the
resident set of a fresh process grows (`ru_maxrss`) per node over an
explore of `bigloop.c` at 200,000 nodes:

    PYTHONPATH=src python tests/test_tree_memory.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from vericov import Budget, Cfa, Spec, explore, statement_ids

sys.path.insert(0, str(Path(__file__).parent))
from conftest import fixture_cfa  # noqa: E402

NODES = 20_000
ASSERT_IN_LOOP_NODES = 300
COVER_NODES = 2_000
COVER_AUTOMATON_NODES = 3_000
RSS_NODES = 200_000
BIGLOOP_MAX_BYTES_PER_NODE = 250
ASSERT_IN_LOOP_MAX_BYTES_PER_NODE = 300
COVER_MAX_BYTES_PER_NODE = 300

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


def bytes_per_node(cfa: Cfa, nodes: int, spec: Spec = Spec.assertions()
                   ) -> float:
    explore(cfa, spec, Budget(max_nodes=50))  # CFA analyses
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = explore(cfa, spec, Budget(max_nodes=nodes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.art_stats.nodes_created == nodes
    return (peak - before) / nodes


def bigloop_bytes_per_node() -> float:
    return bytes_per_node(fixture_cfa("bigloop.c"), NODES)


def cover_bytes_per_node() -> float:
    """The cover-mode figure: every statement of `bigloop.c` remaining,
    under the automaton a 3,000-node `verify` writes."""
    cfa = fixture_cfa("bigloop.c")
    aa = explore(cfa, Spec.assertions(),
                 Budget(max_nodes=COVER_AUTOMATON_NODES)).aa
    return bytes_per_node(cfa, COVER_NODES,
                          Spec.cover(statement_ids(cfa), aa))


def assert_in_loop_bytes_per_node() -> float:
    """The assert-in-loop figure, in a fresh process (see the module
    docstring)."""
    return _in_fresh_process("""
from test_tree_memory import ASSERT_IN_LOOP, ASSERT_IN_LOOP_NODES, bytes_per_node
from vericov import source_to_cfa
print(bytes_per_node(source_to_cfa(ASSERT_IN_LOOP), ASSERT_IN_LOOP_NODES))
""")


def bigloop_rss_bytes_per_node() -> float:
    """`ru_maxrss` growth over an explore of `bigloop.c` at RSS_NODES
    nodes, divided by the nodes, in a fresh process after a 50-node
    warm-up.  Linux reports `ru_maxrss` in KiB, and carries the peak of
    the process that starts the child into the child's `ru_maxrss`, so
    call this before the calling process grows."""
    return _in_fresh_process(f"""
import resource
from conftest import fixture_cfa
from vericov import Budget, Spec, explore
cfa = fixture_cfa("bigloop.c")
explore(cfa, Spec.assertions(), Budget(max_nodes=50))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = explore(cfa, Spec.assertions(), Budget(max_nodes={RSS_NODES}))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert result.art_stats.nodes_created == {RSS_NODES}
print((after - before) * 1024 / {RSS_NODES})
""")


def _in_fresh_process(code: str) -> float:
    """The number `code` prints, run by a new interpreter that imports
    from `src/` and `tests/`."""
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return float(subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                check=True).stdout)


def test_explore_peaks_below_the_bytes_per_node_bound():
    assert bigloop_bytes_per_node() <= BIGLOOP_MAX_BYTES_PER_NODE


def test_an_assert_in_a_loop_peaks_below_the_bytes_per_node_bound():
    assert assert_in_loop_bytes_per_node() <= \
        ASSERT_IN_LOOP_MAX_BYTES_PER_NODE


def test_a_cover_mode_tree_peaks_below_the_bytes_per_node_bound():
    assert cover_bytes_per_node() <= COVER_MAX_BYTES_PER_NODE


if __name__ == "__main__":
    # First, while this process is small: see `bigloop_rss_bytes_per_node`.
    rss = bigloop_rss_bytes_per_node()
    print(f"bigloop.c: {bigloop_bytes_per_node():.1f} B/node"
          f" (bound {BIGLOOP_MAX_BYTES_PER_NODE}, {NODES} nodes)")
    print(f"assert in a loop: {assert_in_loop_bytes_per_node():.1f} B/node"
          f" (bound {ASSERT_IN_LOOP_MAX_BYTES_PER_NODE},"
          f" {ASSERT_IN_LOOP_NODES} nodes, fresh process)")
    print(f"bigloop.c, cover mode: {cover_bytes_per_node():.1f} B/node"
          f" (bound {COVER_MAX_BYTES_PER_NODE}, {COVER_NODES} nodes)")
    print(f"bigloop.c, ru_maxrss: {rss:.1f} B/node"
          f" ({RSS_NODES} nodes, fresh process)")
