"""How fast is the host right now?  A fixed reference kernel.

The reference box is a 2-vCPU VM on a shared host whose speed drifts
between states 10-35 % apart that last from seconds to many minutes
(README, "Reference-host seconds").  No run short enough for the
driver's time cap outlasts such a state, so the time metrics are
*normalised*: each measured interval is divided by how much slower than
nominal the reference kernel below ran right before and right after it.

The kernel is part of the benchmark, never of the program: a change to
``src/`` cannot make it faster.  It mixes the two kinds of work the
workloads do — interpreter-bound dict/int bytecode and many small numpy
calls — in equal parts.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REF_NOMINAL_S", "probe", "slowdown"]

#: Seconds one probe takes on the reference box in the state it is in
#: most of the time (Python 3.11, numpy 2.4; 0.0200 in its rare fast
#: state).  Only fixes the scale: on this box, in that state, normalised
#: seconds equal measured seconds.
REF_NOMINAL_S = 0.0235

_PROBE_RUNS = 3
_WEIGHTS = np.arange(4096, dtype=np.float64)
_BINS = (np.arange(4096) * 7) % 512


def _interpreter_kernel() -> int:
    table: dict = {}
    acc = 0
    for i in range(66_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        acc ^= key
    return acc + len(table)


def _numpy_kernel() -> float:
    total = 0.0
    for _ in range(1_000):
        sums = np.bincount(_BINS, weights=_WEIGHTS, minlength=512)
        mask = sums > 100.0
        total += float((_WEIGHTS[:512][mask] / (sums[mask] + 1.0)).min())
    return total


def probe() -> float:
    """Reference seconds now: the fastest of a few runs of each kernel
    (short bursts hit single runs; the state of the host hits all)."""
    clock = time.perf_counter
    total = 0.0
    for kernel in (_interpreter_kernel, _numpy_kernel):
        best = float("inf")
        for _ in range(_PROBE_RUNS):
            t0 = clock()
            kernel()
            best = min(best, clock() - t0)
        total += best
    return total


def slowdown(before: float, after: float) -> float:
    """Host slowdown over an interval bracketed by two probes (1.0 =
    the reference box in its usual state)."""
    return (before + after) / (2.0 * REF_NOMINAL_S)
