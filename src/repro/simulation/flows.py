"""Fluid IO flows: finite transfers and open-ended streams.

A :class:`FluidFlow` is a demand on the cluster's disks: client IO, a
recovery (re-replication) batch, or a re-integration batch.  Finite
flows carry a byte total and complete; streams (client IO during a
phase) run until the driver retires them.  :class:`FlowSet` holds the
live flows and advances them tick by tick against a
:func:`~repro.simulation.bandwidth.max_min_fair` allocation, reused
while provably fresh: coefficients are values (frozen copies), so an
unchanged flow still holds the very mapping object of the last solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
)

from repro.obs.runtime import OBS
from repro.simulation.bandwidth import FlowSpec, max_min_fair
from repro.simulation.columnar import ColumnCache, _FrozenCoefficients

__all__ = ["FluidFlow", "FlowSet"]

#: A finite flow with this little left to move is done.
_DONE_BYTES = 1e-6


@dataclass
class FluidFlow:
    """One fluid flow.

    Attributes
    ----------
    name:
        Label for timelines ("client", "migration", ...).
    coefficients:
        ``{server/resource: load per unit rate}`` — see
        :mod:`repro.simulation.bandwidth`.  Stored as a frozen copy.
    total_bytes:
        Remaining payload; ``None`` makes this an open-ended stream.
    rate_cap:
        Demand ceiling in bytes/s (token-bucket throttles and the
        Filebench ``rate`` attribute both express themselves here);
        ``inf`` = elastic.
    on_complete:
        Callback fired when a finite flow drains.
    on_interrupt:
        Callback fired when the flow is preempted (after the flow has
        been removed from its set); the transfer layer re-enqueues the
        work here.
    """

    name: str
    coefficients: Mapping[Hashable, float]
    total_bytes: Optional[float] = None
    rate_cap: float = math.inf
    on_complete: Optional[Callable[["FluidFlow"], None]] = None
    on_interrupt: Optional[Callable[["FluidFlow"], None]] = None

    #: Bytes moved so far (at the flow's logical rate).
    progressed: float = 0.0
    #: Rate granted in the last allocation round.
    last_rate: float = 0.0
    #: Lifecycle span opened by :meth:`FlowSet.add` (a
    #: :class:`repro.obs.spans.Span`); closed on finish or cancel.
    span: Optional[object] = None

    @property
    def remaining(self) -> float:
        if self.total_bytes is None:
            return math.inf
        return max(0.0, self.total_bytes - self.progressed)

    @property
    def done(self) -> bool:
        return self.total_bytes is not None and self.remaining <= _DONE_BYTES

    def demand_for(self, dt: float) -> float:
        """Rate demand for a tick of length *dt*: capped by the rate
        limit and, for finite flows, by what is left to move."""
        d = self.rate_cap
        if self.total_bytes is not None and dt > 0:
            d = min(d, self.remaining / dt)
        return d


#: Every assignment stores a frozen copy: coefficients are values.
FluidFlow.coefficients = property(  # type: ignore[assignment]
    lambda flow: flow._coefficients,
    lambda flow, mapping: setattr(flow, "_coefficients",
                                  _FrozenCoefficients(mapping)))


class FlowSet:
    """The live flows plus per-tick advancement.

    Internally the set keeps a position index (``id(flow) →`` slot in
    the backing list) so :meth:`remove` and :meth:`interrupt` are O(1)
    tombstone writes instead of ``list.remove`` O(F) scans — a
    mass-interrupt fault storm used to be O(F²).  Tombstones preserve
    insertion order exactly (iteration stays deterministic); the
    backing list compacts once more than half of it is dead.

    :attr:`generation` increments on every membership change (add /
    remove / interrupt / completion) — the allocation cache keys on it
    to know when a cached max-min-fair solution is stale.
    """

    #: Compact the backing list when it holds at least this many
    #: tombstones and they outnumber the live flows.
    _COMPACT_MIN_DEAD = 32

    def __init__(self) -> None:
        self._flows: List[Optional[FluidFlow]] = []
        self._pos: Dict[int, int] = {}
        self._dead = 0
        #: Monotone membership version; any change invalidates cached
        #: allocations.
        self.generation = 0
        #: Last-solve snapshot for allocation reuse (see
        #: :meth:`advance_cached`).
        self._alloc: Optional[Dict[str, object]] = None
        #: Compiled coefficient columns carried from solve to solve.
        self._columns = ColumnCache()

    # -- membership internals ------------------------------------------
    def _live_list(self) -> List[FluidFlow]:
        return [f for f in self._flows if f is not None]

    def _discard(self, flow: FluidFlow, *, strict: bool = True) -> bool:
        """Tombstone *flow* out of the set (O(1)); compacts when the
        dead fraction crosses one half."""
        pos = self._pos.pop(id(flow), None)
        if pos is None:
            if strict:
                raise ValueError(f"flow {flow.name!r} not in flow set")
            return False
        self._flows[pos] = None
        self._dead += 1
        self.generation += 1
        if (self._dead >= self._COMPACT_MIN_DEAD
                and self._dead > len(self._pos)):
            self._flows = self._live_list()
            self._pos = {id(f): i for i, f in enumerate(self._flows)}
            self._dead = 0
        return True

    def add(self, flow: FluidFlow, parent=None) -> FluidFlow:
        """Admit a flow, opening its ``flow`` lifecycle span (optionally
        parented to a larger lifecycle, e.g. a resize cycle)."""
        if id(flow) in self._pos:
            raise ValueError(f"flow {flow.name!r} already in flow set")
        self._pos[id(flow)] = len(self._flows)
        self._flows.append(flow)
        self.generation += 1
        OBS.metrics.inc("flows.started")
        flow.span = OBS.spans.begin("flow", parent=parent, flow=flow.name)
        bus = OBS.bus
        if bus.active:
            bus.emit("flow.start", name=flow.name,
                     span_id=flow.span.span_id,
                     total_bytes=flow.total_bytes,
                     rate_cap=(None if math.isinf(flow.rate_cap)
                               else flow.rate_cap))
        return flow

    def remove(self, flow: FluidFlow) -> None:
        """Retire a flow the driver no longer wants (an open-ended
        stream at phase end, an abandoned transfer): emits
        ``flow.cancel`` and closes the span as cancelled."""
        self._discard(flow)
        OBS.metrics.inc("flows.cancelled")
        bus = OBS.bus
        if bus.active:
            bus.emit("flow.cancel", name=flow.name,
                     span_id=(flow.span.span_id
                              if flow.span is not None else None),
                     nbytes=flow.progressed)
        if flow.span is not None:
            flow.span.end(status="cancelled")

    def interrupt(self, flow: FluidFlow, reason: str = "fault") -> float:
        """Preempt a transfer mid-flight (a fault hit one of its
        servers): the flow leaves the set, its partial progress is
        accounted as *wasted* work (the bytes must be re-sent — state
        only commits on completion), and ``on_interrupt`` fires so the
        owner can re-enqueue the transfer.  Returns the wasted bytes.
        """
        self._discard(flow)
        wasted = flow.progressed
        OBS.metrics.inc("flows.interrupted")
        OBS.metrics.inc("flows.wasted_bytes", wasted)
        bus = OBS.bus
        if bus.active:
            bus.emit("flow.interrupt", name=flow.name,
                     span_id=(flow.span.span_id
                              if flow.span is not None else None),
                     nbytes=wasted, reason=reason)
        if flow.span is not None:
            flow.span.end(status="interrupted", reason=reason)
        if flow.on_interrupt is not None:
            flow.on_interrupt(flow)
        return wasted

    def __len__(self) -> int:
        return len(self._pos)

    def __iter__(self):
        # Snapshot so callers may remove/interrupt while iterating.
        return iter(self._live_list())

    def by_name(self, name: str) -> List[FluidFlow]:
        return [f for f in self._flows
                if f is not None and f.name == name]

    # ------------------------------------------------------------------
    @staticmethod
    def _solve_payload(live: List[FluidFlow], rates: List[float],
                       capacities: Mapping[Hashable, float]
                       ) -> Dict[str, object]:
        """The ``bandwidth.solve`` event fields: per-resource
        utilisation of an allocation — the bandwidth-cap invariant
        checker audits the maximum."""
        usage: Dict[Hashable, float] = {}
        for f, rate in zip(live, rates):
            for res, coef in f.coefficients.items():
                usage[res] = usage.get(res, 0.0) + coef * rate
        max_util, max_util_rank = 0.0, None
        for res, cap in capacities.items():
            if cap <= 0:
                continue
            util = usage.get(res, 0.0) / cap
            if util > max_util:
                max_util, max_util_rank = util, res
        return {"flows": len(live), "resources": len(capacities),
                "max_util": max_util, "max_util_rank": max_util_rank}

    def _finish(self, finished: List[FluidFlow], bus) -> None:
        """Completion processing shared by both advance paths: metric,
        ``flow.finish`` event, span close, ``on_complete`` callback,
        then removal.  The callback may add or remove other flows —
        removal below is lenient for exactly that reason."""
        for f in finished:
            OBS.metrics.inc("flows.completed")
            if bus.active:
                bus.emit("flow.finish", name=f.name,
                         span_id=(f.span.span_id
                                  if f.span is not None else None),
                         nbytes=f.progressed)
            if f.span is not None:
                f.span.end(status="finished")
            if f.on_complete is not None:
                f.on_complete(f)
        for f in finished:
            self._discard(f, strict=False)

    def advance(self, dt: float,
                capacities: Mapping[Hashable, float]) -> Dict[str, float]:
        """Allocate rates for one tick, advance progress, retire
        completed flows.

        Returns aggregate achieved rate per flow name (bytes/s) — the
        timeline samples Figures 3 and 7 plot.

        The solve's inputs and outputs are snapshotted so subsequent
        unchanged ticks can go through :meth:`advance_cached` without
        re-solving.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._alloc = None
        # One `remaining` per flow decides both "done on entry" and the
        # tick's demand (`done` + `demand_for` would compute it twice).
        live: List[FluidFlow] = []
        demands: List[float] = []
        for f in self._live_list():
            d = f.rate_cap
            if f.total_bytes is not None:
                left = f.remaining
                if left <= _DONE_BYTES:
                    # Retired by a driver clamping total_bytes:
                    # dropped silently, as the tail filter always has.
                    self._discard(f, strict=False)
                    continue
                d = min(d, left / dt)
            live.append(f)
            demands.append(d)
        if not live:
            return {}
        specs = [FlowSpec(coefficients=f.coefficients, demand=d)
                 for f, d in zip(live, demands)]
        rates = max_min_fair(specs, capacities, self._columns)
        bus = OBS.bus
        payload: Optional[Dict[str, object]] = None
        if bus.active:
            payload = self._solve_payload(live, rates, capacities)
            bus.emit("bandwidth.solve", **payload)

        achieved: Dict[str, float] = {}
        finished: List[FluidFlow] = []
        for f, rate in zip(live, rates):
            f.last_rate = rate
            f.progressed += rate * dt
            achieved[f.name] = achieved.get(f.name, 0.0) + rate
            if f.total_bytes is not None and f.remaining <= _DONE_BYTES:
                finished.append(f)
        if finished:
            self._finish(finished, bus)
        else:
            # Nothing completed: the allocation is reusable while the
            # membership, coefficients, caps, demands and capacities
            # hold still.  (A completion changes the flow set, so the
            # next tick must re-solve anyway.)
            self._alloc = {
                "generation": self.generation,
                "dt": dt,
                "live": live,
                "coefficients": [f.coefficients for f in live],
                "caps": [f.rate_cap for f in live],
                "demands": demands,
                "rates": rates,
                "incs": [r * dt for r in rates],
                "achieved": achieved,
                "payload": payload,
                "capacities": capacities,
            }
        return achieved

    def advance_cached(self, dt: float) -> Optional[Dict[str, float]]:
        """One tick through the cached allocation, or ``None`` when the
        cache cannot be proven fresh (then the caller re-solves via
        :meth:`advance`).

        Soundness, not heuristics: the cached rates are the exact
        solver output for inputs (coefficient mappings by identity —
        they are values, a re-point is a new object — rate caps,
        demands bit-for-bit, membership generation); when all of those
        hold and the caller vouches for unchanged capacities, the
        solver would return the identical rates, so skipping it cannot
        change a single sample or trace byte.
        """
        a = self._alloc
        if a is None or a["generation"] != self.generation or dt != a["dt"]:
            return None
        live: List[FluidFlow] = a["live"]          # type: ignore[assignment]
        for f, coefficients, cap, dem in zip(live, a["coefficients"],
                                             a["caps"], a["demands"]):
            if (f.coefficients is not coefficients or f.rate_cap != cap
                    or f.demand_for(dt) != dem):
                return None
        bus = OBS.bus
        if bus.active:
            payload = a["payload"]
            if payload is None:
                payload = self._solve_payload(live, a["rates"],
                                              a["capacities"])
                a["payload"] = payload
            bus.emit("bandwidth.solve", **payload)
        OBS.metrics.inc("bandwidth.reused")
        for f, rate, inc in zip(live, a["rates"], a["incs"]):
            f.last_rate = rate
            f.progressed += inc
        finished = [f for f in live if f.done]
        if finished:
            self._finish(finished, bus)     # bumps generation
        return dict(a["achieved"])
