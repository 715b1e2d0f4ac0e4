"""Figure 1 — consistent hashing's adaptation to a node addition.

The paper's background figure: when server 3 joins a 2-server ring,
only the keys whose successor arcs now belong to server 3 move; every
other key stays put.  We measure the moved fraction against the
theoretical share of the added server and verify zero collateral
movement, then benchmark the lookup path itself.
"""

import numpy as np

from repro.core.placement import place_original
from repro.hashring.ring import HashRing

from _bench_utils import emit_report, once
from repro.metrics.report import render_table

KEYS = 20_000


def movement_on_addition(n_before: int, vnodes: int = 200):
    weights = dict.fromkeys(range(1, n_before + 1), vnodes)
    ring = HashRing(weights)
    grown = HashRing({**weights, n_before + 1: vnodes})
    moved_onto_new = 0
    collateral = 0
    for k in range(KEYS):
        before = place_original(ring, k, 2).servers
        after = place_original(grown, k, 2).servers
        if after != before:
            if n_before + 1 in after:
                moved_onto_new += 1
            else:
                collateral += 1
    return moved_onto_new / KEYS, collateral


def bench_fig1_adaptation(benchmark):
    rows = []
    for n in (2, 5, 10, 20):
        frac, collateral = movement_on_addition(n)
        # With r=2 a key moves if either of its two successor slots
        # falls to the new server: expected ~ 2/(n+1).
        rows.append([f"{n}->{n + 1}", f"{2 / (n + 1):.3f}",
                     f"{frac:.3f}", collateral])

    ring = HashRing(dict.fromkeys(range(1, 11), 200))
    n_keys = 5_000

    def lookups():
        for k in range(n_keys):
            place_original(ring, k, 2)

    once(benchmark, lookups)

    emit_report("fig1_ch_adaptation", render_table(
        ["transition", "expected moved frac (~2/(n+1))",
         "measured moved frac", "collateral moves (must be 0)"],
        rows,
        title="Figure 1 — minimal movement on node addition "
              "(paper: only arcs owned by the new server move)"))
    assert all(r[3] == 0 for r in rows)
