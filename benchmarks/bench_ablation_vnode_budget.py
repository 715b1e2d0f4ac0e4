"""Ablation B — the vnode budget ``B``.

§III-C: B must be "large enough for data distribution fairness" (the
paper's example uses 1000 and notes a much larger B in practice).
This bench sweeps B and measures how far the ring's arc shares deviate
from the equal-work weights, and the placement cost of a larger ring.
The report holds what the layout decides; the wall-clock locate cost
is printed (``-s`` shows it), not committed.
"""

import time

from repro.core.elastic import ElasticConsistentHash
from repro.hashring.weights import expected_shares, share_error
from repro.metrics.report import render_table

from _bench_utils import emit_report, once

BUDGETS = (100, 1_000, 10_000, 100_000)


def profile(B):
    ech = ElasticConsistentHash(n=10, replicas=2, B=B)
    exp = expected_shares(ech.layout.weight_map())
    err = share_error(ech.ring.arc_share(), exp)
    t0 = time.perf_counter()
    for oid in range(2_000):
        ech.locate(oid)
    locate_us = (time.perf_counter() - t0) / 2_000 * 1e6
    return err, ech.ring.num_vnodes, locate_us


def bench_ablation_vnode_budget(benchmark):
    results = once(benchmark, lambda: {B: profile(B) for B in BUDGETS})

    emit_report("ablation_vnode_budget", render_table(
        ["B", "total vnodes", "worst arc-share error vs weights"],
        [[B, vnodes, f"{err * 100:.1f}%"]
         for B, (err, vnodes, _us) in results.items()],
        title="Ablation B — vnode budget vs distribution fairness "
              "(paper: 'large enough ... for fairness', example B=1000)"))
    print(render_table(
        ["B", "locate() µs/object"],
        [[B, f"{us:.0f}"] for B, (_err, _vnodes, us) in results.items()],
        title="Ablation B — placement cost of a larger ring (wall clock)"))

    errors = [results[B][0] for B in BUDGETS]
    # Fairness must improve by at least 3x from the smallest to the
    # largest budget.
    assert errors[-1] < errors[0] / 3
