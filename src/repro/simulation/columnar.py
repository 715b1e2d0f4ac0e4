"""Columnar (struct-of-arrays) backend for the fluid IO hot loop.

The scalar :func:`~repro.simulation.bandwidth.max_min_fair_scalar` is
O(F·R) interpreter work per filling round, which caps simulated
cluster size.  This module compiles the same problem into CSR-style
NumPy columns (flow-major ``flow_idx`` / ``res_idx`` / ``coef``
entries) and fills on those.

**Bit-for-bit identity with the scalar solver is a hard contract**
(``tests/simulation/test_columnar.py``: ``==``, never ``approx``):
traces hash the rates and ledger digests the round counter, so this
path returns the identical IEEE-754 doubles, the same
``bandwidth.filling_rounds`` and the same exceptions.  Resource-side
arithmetic is the scalar solver's, replayed: ``np.bincount(idx,
weights=w)`` and ``np.subtract.at`` accumulate serially in input order
and flow-major is the order the scalar loops run in, so each
per-resource ``+= coef`` / ``-= coef * step`` chain is the same chain.
The flow side rests on three facts:

1. *One water level.*  Every live flow has received the same
   ``+= step`` sequence from 0.0, so all live rates are one float: the
   loop carries a scalar ``level`` (the same additions, done once) and
   writes a flow's rate once, when it freezes.
2. *Demand order is freeze order.*  IEEE subtraction of a common value
   is monotone in the minuend, so ``min_i(demand_i - level)`` **is**
   ``min_i(demand_i) - level`` and the flows with
   ``level >= demand_i - 1e-12`` are a prefix of the live flows in
   demand order: one stable argsort per solve and a cursor replace the
   per-round gap / ``isfinite`` / ``min`` / compare arrays.
3. *Saturation concerns live entries only.*  A resource that reached
   0.0 froze every live flow on it in that round and nothing
   un-freezes, so ``remaining == 0`` is tested on live flows' entries
   only and the columns are compacted (order kept, so the chains stay
   flow-major) as flows freeze; a resource no longer in them has no
   live user, and its load is pinned to exact 0.0 as the scalar
   solver's user counter does.

Compilation is incremental: a :class:`ColumnCache` (one per
:class:`~repro.simulation.flows.FlowSet`) keeps, per coefficient
mapping, the mapping it compiled and the resulting ``(res_idx, coef)``
segment.  Coefficients are values — a ``FluidFlow`` holds a frozen
copy of what it was given — so a solve reuses the segment of a frozen
mapping it compiled before, validates and compiles any other mapping
(a plain dict on every solve) and concatenates segments; a cold
compile is the same code with an empty cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.runtime import OBS

__all__ = ["ColumnCache", "CompiledProblem", "compile_problem",
           "solve_compiled", "max_min_fair_columnar"]

Resource = Hashable
#: (the mapping a segment was compiled from, its ``res_idx``, ``coef``)
Segment = Tuple[Mapping[Resource, float], np.ndarray, np.ndarray]


class _FrozenCoefficients(dict):
    """A flow's coefficients as a value; only ``FluidFlow`` makes one."""
    def _frozen(self, *args, **kwargs):
        raise TypeError("flow coefficients are a value: assign a new mapping")
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = _frozen
    setdefault = update = _frozen


class ColumnCache:
    """Compiled segments per coefficient mapping, kept between solves.

    Keyed by ``id(mapping)`` but trusted only for the same
    :class:`_FrozenCoefficients` object the segment holds, which cannot
    have changed since.  Segments index one capacity key order
    (``resources``); another order empties the cache, and each compile
    rebuilds ``segments`` from the flows it saw, evicting the departed.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self, resources: Tuple[Resource, ...] = ()) -> None:
        """Forget every segment; the next ones index *resources*."""
        self.resources = resources
        self.col = {res: j for j, res in enumerate(resources)}
        self.segments: Dict[int, Segment] = {}


@dataclass
class CompiledProblem:
    """One allocation problem as struct-of-arrays columns.

    Entries are stored flow-major (flow 0's coefficients in dict
    order, then flow 1's, ...), which is exactly the order the scalar
    solver's nested dict loops touch them in — the in-order
    accumulation guarantee above turns that into bit-identity.
    Coefficients on resources absent from *capacities* are dropped at
    compile time (the scalar path skips them with ``in`` checks).
    """

    #: Number of flows (rows) and known resources (columns).
    n_flows: int
    n_resources: int
    #: CSR-style entry columns, flow-major.
    flow_idx: np.ndarray       # int64, one per (flow, known-resource)
    res_idx: np.ndarray        # int64
    coef: np.ndarray           # float64
    #: Per-flow demand caps (``inf`` = elastic).
    demand: np.ndarray         # float64
    #: Per-resource capacities, in ``capacities`` iteration order.
    capacity: np.ndarray       # float64
    #: Resource keys by column index (for diagnostics).
    resources: Tuple[Resource, ...]


def _compile_segment(mapping: Mapping, col: Mapping[Resource, int]) -> Segment:
    """Validate one mapping and index its known resources."""
    res_idx: List[int] = []
    coefs: List[float] = []
    for res, coef in mapping.items():
        if coef <= 0:
            raise ValueError(f"coefficient must be > 0 (resource {res!r})")
        j = col.get(res)
        if j is not None:
            res_idx.append(j)
            coefs.append(coef)
    return (mapping, np.array(res_idx, dtype=np.int64),
            np.array(coefs, dtype=np.float64))


def compile_problem(flows: Sequence, capacities: Mapping[Resource, float],
                    cache: Optional[ColumnCache] = None) -> CompiledProblem:
    """Compile ``FlowSpec``-likes (anything with ``coefficients`` and
    ``demand``) plus capacities into columns, taking from *cache* the
    segment of every frozen mapping it compiled before.

    Validation mirrors the scalar solver exactly — same messages, same
    first offender (only validated segments are cached, so reusing one
    skips nothing that could raise) — so dispatching between the two
    backends never changes an exception.
    """
    if cache is None:
        cache = ColumnCache()
    resources = tuple(capacities)
    if resources != cache.resources:
        cache.clear(resources)
    col, known = cache.col, cache.segments
    cache.segments = segments = {}

    demand: List[float] = []
    segs: List[Segment] = []
    for f in flows:
        mapping = f.coefficients
        seg = known.get(id(mapping))
        if (seg is None or seg[0] is not mapping
                or type(mapping) is not _FrozenCoefficients):
            seg = _compile_segment(mapping, col)
        if f.demand < 0:
            raise ValueError("demand must be >= 0")
        segments[id(mapping)] = seg
        demand.append(f.demand)
        segs.append(seg)

    capacity = np.fromiter(capacities.values(), dtype=np.float64,
                           count=len(resources))
    if (capacity < 0).any():
        res = resources[int(np.argmax(capacity < 0))]
        raise ValueError(f"capacity must be >= 0 (resource {res!r})")

    n = len(segs)
    parts = segs or [_compile_segment({}, col)]
    return CompiledProblem(
        n_flows=n,
        n_resources=len(resources),
        flow_idx=np.repeat(np.arange(n, dtype=np.int64),
                           [seg[1].size for seg in segs]),
        res_idx=np.concatenate([seg[1] for seg in parts]),
        coef=np.concatenate([seg[2] for seg in parts]),
        demand=np.array(demand, dtype=np.float64),
        capacity=capacity,
        resources=resources,
    )


def solve_compiled(problem: CompiledProblem) -> List[float]:
    """Progressive filling over the compiled columns; the module
    docstring says why each shortcut keeps the scalar solver's bits.
    A round is O(entries of still-live flows) array work, and there are
    at most ``n_flows + n_resources + 1`` — the scalar solver's bound.
    """
    n, nres = problem.n_flows, problem.n_resources
    demand = problem.demand
    rates = np.zeros(n, dtype=np.float64)
    remaining = problem.capacity.copy()

    # Frozen at entry: zero demand, or a coefficient on an exactly zero
    # capacity.  From here on the columns hold live flows' entries only.
    live = demand != 0
    cf, cr, cc = problem.flow_idx, problem.res_idx, problem.coef
    live[cf[remaining[cr] == 0.0]] = False
    n_live = int(np.count_nonzero(live))
    keep = live[cf]
    cf, cr, cc = cf[keep], cr[keep], cc[keep]
    # Serial additions in flow-major order, matching the scalar init.
    live_load = np.bincount(cr, weights=cc, minlength=nres)

    # Flows in demand order; every flow before `cursor` is frozen.
    order = np.argsort(demand, kind="stable")
    by_demand = order.tolist()
    caps = demand[order].tolist()
    reached_at = (demand[order] - 1e-12).tolist()
    cursor = rounds = 0
    level = 0.0
    for _round in range(n + nres + 1):
        if not n_live:
            break
        rounds += 1

        candidates = []
        # Fastest-saturating resource under equal rate growth.
        loaded = live_load > 0
        left = remaining[loaded]
        if left.size:
            candidates.append(float((left / live_load[loaded]).min()))
        # Closest demand cap among live flows.
        while cursor < n and not live[by_demand[cursor]]:
            cursor += 1
        if cursor < n:
            gap = caps[cursor] - level
            if math.isfinite(gap):
                candidates.append(gap)
        if not candidates:
            raise ValueError(
                "unbounded allocation: an elastic flow touches no "
                "capacitated resource")
        step = max(0.0, min(candidates))

        # Raise the level and drain: the scalar solver's
        # `remaining[res] -= coef * step` chains, in flow-major order.
        level += step
        np.subtract.at(remaining, cr, cc * step)
        drained = remaining < 1e-9
        remaining[drained] = 0.0

        # Freeze: demand reached (within tolerance) or a touched
        # resource saturated (`drained` is now `remaining == 0.0`).
        while cursor < n and level >= reached_at[cursor]:
            i = by_demand[cursor]
            if live[i]:
                live[i] = False
                rates[i] = level
            cursor += 1
        saturated = cf[drained[cr]]
        live[saturated] = False
        rates[saturated] = level

        # Retire the newly frozen from the live loads and the columns.
        still = int(np.count_nonzero(live))
        if still != n_live:
            n_live = still
            keep = live[cf]
            gone = ~keep
            np.subtract.at(live_load, cr[gone], cc[gone])
            cf, cr, cc = cf[keep], cr[keep], cc[keep]
            live_load[np.bincount(cr, minlength=nres) == 0] = 0.0

    # A flow the round bound left unfrozen keeps the level it reached.
    rates[live] = level
    OBS.metrics.inc("bandwidth.solves")
    OBS.metrics.inc("bandwidth.filling_rounds", rounds)
    return rates.tolist()


def max_min_fair_columnar(flows: Sequence,
                          capacities: Mapping[Resource, float],
                          cache: Optional[ColumnCache] = None
                          ) -> List[float]:
    """:func:`repro.simulation.bandwidth.max_min_fair_scalar` on columns
    — same exceptions, bit-identical rates; *cache* carries compiled
    segments from one solve to the next."""
    return solve_compiled(compile_problem(flows, capacities, cache))
