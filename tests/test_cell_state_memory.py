"""Memory guard: per-node cell state of one seeded full-grid slot.

Custody and fetcher cell state is one bitmask per custody line, so a
node's long-lived state for a full 512x512 slot is tens of KiB. The
former set-of-cell-ids representation held about 680 KiB per node in
this exact setup (24 nodes, seed 7, redundant r=8 seeding), over five
times the bound asserted here.
"""

from __future__ import annotations

import tracemalloc

from repro.core.seeding import RedundantSeeding
from repro.params import PandasParams
from tests.helpers import make_world

NODES = 24
# KiB of custody/fetcher/assignment allocations per node still live at
# the end of the slot
BOUND_KIB = 128
STATE_MODULES = ("repro/core/custody.py", "repro/core/fetching.py", "repro/core/assignment.py")


def test_full_grid_cell_state_per_node_is_small():
    world = make_world(
        num_nodes=NODES, params=PandasParams.full(), policy=RedundantSeeding(8), seed=7
    )
    tracemalloc.start()
    try:
        world.run_slot(0)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live = sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.replace("\\", "/").endswith(STATE_MODULES)
    )
    assert all(node.slot_cells(0).consolidation_complete for node in world.nodes.values())
    assert live / NODES / 1024 < BOUND_KIB
