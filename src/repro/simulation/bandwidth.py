"""Max-min fair bandwidth allocation with per-resource coefficients.

The fluid IO model reduces every tick to one question: given flows
(foreground client IO, recovery, re-integration) that each load a set
of server disks, and per-disk capacity, what rate does each flow get?

We answer with *weighted progressive filling*, the classic max-min
construction: every unfrozen flow's rate grows at the same pace until
either (a) a flow reaches its demand cap — it freezes at its cap — or
(b) a resource saturates — every flow using that resource freezes at
its current rate.  Repeat until all flows are frozen.  The result is
the unique max-min fair allocation, the standard idealisation of how
fair disk/network schedulers share bandwidth between concurrent
streams.

A *coefficient* generalises "uses the resource": a flow with rate x and
coefficient a on disk s consumes ``a*x`` of that disk.  This is how
replication is expressed — a client write stream at logical rate x with
r=2 puts coefficient ~2·(share of server s) on each server — and how a
migration flow loads both its source (read) and destination (write).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

from repro.obs.runtime import OBS

__all__ = ["FlowSpec", "max_min_fair", "max_min_fair_scalar",
           "apply_capacity_factors"]

Resource = Hashable

#: Size cutover: use the columnar backend
#: (:mod:`repro.simulation.columnar`) when flows × resources reaches
#: this many cells.  Below it the scalar dict loop wins on constant
#: factors (array allocation costs more than the whole solve); above
#: it the per-round O(F·R) interpreter work dominates.  Both backends
#: return bit-identical rates, so the cutover only moves wall-clock,
#: never results.
_AUTO_CUTOVER_CELLS = 2048


def apply_capacity_factors(
    capacities: Mapping[Resource, float],
    factors: Mapping[Resource, float],
) -> Dict[Resource, float]:
    """Scale per-resource capacities by degradation factors — the hook
    transient disk-bandwidth faults use to slow a server down for a
    window.  A missing factor means 1.0 (healthy); factors clamp at 0
    (a fully stalled disk freezes its flows, which ``max_min_fair``
    already handles)."""
    if not factors:
        return dict(capacities)
    return {res: cap * max(0.0, factors.get(res, 1.0))
            for res, cap in capacities.items()}


@dataclass
class FlowSpec:
    """One flow's view of the allocation problem.

    Attributes
    ----------
    coefficients:
        ``{resource: load-per-unit-rate}``; all coefficients > 0.
    demand:
        Rate cap (``inf`` = elastic, takes whatever is fair).
    """

    coefficients: Mapping[Resource, float]
    demand: float = math.inf


def max_min_fair(flows: Sequence[FlowSpec],
                 capacities: Mapping[Resource, float],
                 columns=None) -> List[float]:
    """Allocate rates to *flows* under *capacities* by progressive
    filling.

    Returns the rate per flow, in input order.  Flows whose every
    coefficient touches only unknown resources are treated as
    unconstrained (rate = demand); a zero-capacity resource freezes its
    flows at 0.

    Dispatches by problem size between the scalar reference
    implementation (:func:`max_min_fair_scalar`) and the vectorised
    columnar backend
    (:func:`repro.simulation.columnar.max_min_fair_columnar`).  The
    two are bit-identical, property-tested in
    ``tests/simulation/test_columnar.py``.

    *columns*: the caller's :class:`~repro.simulation.columnar.ColumnCache`
    of compiled coefficient segments, kept across scalar solves.
    """
    if len(flows) * len(capacities) >= _AUTO_CUTOVER_CELLS:
        from repro.simulation.columnar import max_min_fair_columnar
        return max_min_fair_columnar(flows, capacities, columns)
    return max_min_fair_scalar(flows, capacities)


def max_min_fair_scalar(flows: Sequence[FlowSpec],
                        capacities: Mapping[Resource, float]) -> List[float]:
    """The reference dict-loop progressive filling.

    Complexity: O(F·R) per filling round, at most F+R rounds — trivial
    for the tens of flows per tick the paper experiments need; the
    columnar backend exists for the 1000-server scenarios.
    """
    n = len(flows)
    rates = [0.0] * n
    frozen = [False] * n

    # Validate and normalise.
    for f in flows:
        for res, coef in f.coefficients.items():
            if coef <= 0:
                raise ValueError(f"coefficient must be > 0 (resource {res!r})")
        if f.demand < 0:
            raise ValueError("demand must be >= 0")

    remaining: Dict[Resource, float] = {}
    for res, cap in capacities.items():
        if cap < 0:
            raise ValueError(f"capacity must be >= 0 (resource {res!r})")
        remaining[res] = float(cap)

    # Flows with zero demand, or using a zero-capacity resource, freeze
    # immediately at 0.
    for i, f in enumerate(flows):
        if f.demand == 0:
            frozen[i] = True
        for res in f.coefficients:
            if res in remaining and remaining[res] == 0.0:
                frozen[i] = True

    # Per-resource live load (Σ coefficients over unfrozen flows) and
    # live-user count, maintained incrementally: a freeze subtracts the
    # flow's coefficients instead of re-summing every filling round
    # (that re-sum was O(F·R) per round).  The counter pins the load to
    # an exact 0.0 when a resource loses its last user, so subtraction
    # residue can never fabricate a tiny phantom load.
    live_load: Dict[Resource, float] = {res: 0.0 for res in remaining}
    live_users: Dict[Resource, int] = {res: 0 for res in remaining}
    for i, f in enumerate(flows):
        if frozen[i]:
            continue
        for res, coef in f.coefficients.items():
            if res in live_load:
                live_load[res] += coef
                live_users[res] += 1

    def retire(i: int) -> None:
        for res, coef in flows[i].coefficients.items():
            if res in live_load:
                live_users[res] -= 1
                if live_users[res] == 0:
                    live_load[res] = 0.0
                else:
                    live_load[res] -= coef

    rounds = 0
    for _round in range(n + len(remaining) + 1):
        live = [i for i in range(n) if not frozen[i]]
        if not live:
            break
        rounds += 1

        # Fastest-saturating resource under equal rate growth.
        step_res: Optional[float] = None
        for res, cap_left in remaining.items():
            load_per_unit = live_load[res]
            if load_per_unit > 0:
                s = cap_left / load_per_unit
                if step_res is None or s < step_res:
                    step_res = s

        # Closest demand cap.
        step_dem: Optional[float] = None
        for i in live:
            gap = flows[i].demand - rates[i]
            if math.isfinite(gap):
                if step_dem is None or gap < step_dem:
                    step_dem = gap

        candidates = [s for s in (step_res, step_dem) if s is not None]
        if not candidates:
            # Entirely unconstrained flows with infinite demand: no
            # finite fair share exists.
            raise ValueError(
                "unbounded allocation: an elastic flow touches no "
                "capacitated resource")
        step = max(0.0, min(candidates))

        # Advance all live flows and drain resources.
        for i in live:
            rates[i] += step
            for res, coef in flows[i].coefficients.items():
                if res in remaining:
                    remaining[res] -= coef * step
        for res in remaining:
            if remaining[res] < 1e-9:
                remaining[res] = 0.0

        # Freeze (and retire frozen flows from the live loads).
        for i in live:
            if rates[i] >= flows[i].demand - 1e-12:
                frozen[i] = True
                retire(i)
                continue
            for res, coef in flows[i].coefficients.items():
                if res in remaining and remaining[res] == 0.0:
                    frozen[i] = True
                    retire(i)
                    break
    OBS.metrics.inc("bandwidth.solves")
    OBS.metrics.inc("bandwidth.filling_rounds", rounds)
    return rates
