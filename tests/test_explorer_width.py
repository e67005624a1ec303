"""What an explored node pays for the width of the program.

On a program of `test_frontend_memory.large_source`'s shape, the
benchmark's `frontend-large`, no expansion forks, and every node outside
the two-iteration loops is alone at its location.  So an explore there
must not work out the CFA's postorder, which only orders the children of
a fork, and must build a cover-group key only where a second node arrives
at a location.

Run it as a script to print, on programs of 300 to 2,400 blocks, the
microseconds per node of a 300-node `explore` and of emitting its
automaton, with the counters the tests check:

    PYTHONPATH=src python tests/test_explorer_width.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

import pytest

from vericov import Budget, Spec, explore, source_to_cfa
from vericov import cfa as cfa_module
from vericov import explorer
from vericov.cfa import Cfa

sys.path.insert(0, str(Path(__file__).parent))
from test_frontend_memory import large_source  # noqa: E402

MAX_NODES = 300


class _Counters:
    """Counts `_postorder_dfs` runs and records the node of each
    `group_key` call, while installed."""

    def __init__(self) -> None:
        self.postorders = 0
        self.keyed: list = []

    def install(self, setattr) -> None:
        dfs, group_key = cfa_module._postorder_dfs, \
            explorer._Explorer.group_key

        def counted_dfs(cfa):
            self.postorders += 1
            return dfs(cfa)

        def recorded_group_key(ex, nid):
            self.keyed.append(nid)
            return group_key(ex, nid)

        setattr(cfa_module, "_postorder_dfs", counted_dfs)
        setattr(explorer._Explorer, "group_key", recorded_group_key)


def _keys_at_occupied_places(nodes):
    """The nodes whose keys `cover` needs when every node has a key: each
    node that arrives where an earlier one stands, and the first node
    there once a second arrives."""
    arrivals = {}
    keyed = []
    for node in nodes:
        place = (node.cfa_node, node.aa_state)
        first = arrivals.setdefault(place, node.id)
        if first != node.id:
            if first is not None:
                keyed.append(first)
                arrivals[place] = None
            keyed.append(node.id)
    return keyed


def _wide_explore(cfa):
    return explore(cfa, Spec.assertions(), Budget(max_nodes=MAX_NODES))


@pytest.mark.parametrize("blocks", [300, 600])
def test_a_wide_explore_keys_only_occupied_places_and_never_orders(
        monkeypatch, blocks):
    counters = _Counters()
    counters.install(monkeypatch.setattr)
    result = _wide_explore(source_to_cfa(large_source(blocks)))
    assert result.art_stats.nodes_created == MAX_NODES
    assert counters.postorders == 0
    assert sorted(counters.keyed) == \
        sorted(_keys_at_occupied_places(result.nodes))
    # Only the nodes inside the loops share their locations.
    assert 0 < len(counters.keyed) < MAX_NODES


def _median_us_per_node(cfa, runs=5):
    """Median microseconds per node created of a `MAX_NODES` explore, and
    of emitting its automaton; each run starts after a full collection."""
    explore_us, emit_us = [], []
    for _ in range(runs):
        gc.collect()
        start = time.perf_counter()
        result = _wide_explore(cfa)
        middle = time.perf_counter()
        explorer.emit_assumption_automaton(result.nodes, cfa, result.verdict)
        end = time.perf_counter()
        nodes = result.art_stats.nodes_created
        explore_us.append((middle - start) / nodes * 1e6)
        emit_us.append((end - middle) / nodes * 1e6)
        del result  # no tree of an earlier run is alive during the next
    return statistics.median(explore_us), statistics.median(emit_us)


if __name__ == "__main__":
    # A 2-node explore works out the CFA's numbering, liveness and
    # out-edge table untimed: it expands the root.
    print(f"{MAX_NODES}-node explore of a wide program, and emitting its"
          " automaton: microseconds per node created")
    print("blocks variables  explore us  emit us  postorder DFS runs"
          "  group keys")
    for blocks in (300, 600, 1200, 2400):
        cfa = source_to_cfa(large_source(blocks))
        explore(cfa, Spec.assertions(), Budget(max_nodes=2))
        explore_us, emit_us = _median_us_per_node(cfa)
        counters = _Counters()
        saved = (cfa_module._postorder_dfs, explorer._Explorer.group_key)
        counters.install(setattr)
        try:  # on a copy that holds no analysis, as a first explore finds it
            _wide_explore(Cfa(cfa.name, cfa.nodes, cfa.edges, cfa.entry,
                              cfa.exit))
        finally:
            cfa_module._postorder_dfs, explorer._Explorer.group_key = saved
        print(f"{blocks:6} {len(cfa.numbering().index):9} {explore_us:11.1f}"
              f" {emit_us:8.1f} {counters.postorders:19}"
              f" {len(counters.keyed):11}")
