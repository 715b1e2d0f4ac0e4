"""The fault injector: a :class:`~repro.faults.plan.FaultPlan`
expanded into atomic actions on the discrete-event simulator.

Every plan event becomes two scheduled actions (``crash`` + ``repair``,
``slow_disk.start`` + ``slow_disk.end``, ``link_loss.start`` +
``link_loss.end``).  Because the actions ride the
:class:`~repro.simulation.engine.Simulator` heap — time plus insertion
sequence, both pure functions of the plan — a same-seed run replays
the identical fault sequence, which is what makes chaos traces
byte-identical across runs.

The injector owns the *ambient* fault state the IO model consults
each tick (:meth:`FaultInjector.capacity_factors`,
:meth:`FaultInjector.link_blocked`); the *discrete* consequences
(crashing the cluster, preempting transfers) are the harness's
business via the handler callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.runtime import OBS
from repro.simulation.engine import Simulator

__all__ = ["FaultAction", "FaultInjector", "render_fault_timeline",
           "render_audit_rows"]

Handler = Callable[["FaultAction"], None]


@dataclass(frozen=True)
class FaultAction:
    """One atomic state change derived from a plan event.

    ``source`` is the index of the originating
    :class:`~repro.faults.plan.FaultEvent` in the plan — provenance
    for traces and a deterministic tie-break for same-time actions.
    """

    kind: str  # crash | repair | slow_disk.{start,end} | link_loss.{start,end}
    source: int
    rank: Optional[int] = None
    peer: Optional[int] = None
    factor: Optional[float] = None


class FaultInjector:
    """Arms a plan on a simulator and tracks the ambient fault state."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._sim: Optional[Simulator] = None
        self._handler: Optional[Handler] = None
        self._fired_triggers: Set[str] = set()
        #: rank -> stack of active degradation factors (overlapping
        #: windows compose by worst-case: min of the stack).
        self._slow: Dict[int, List[float]] = {}
        #: frozenset({a, b}) -> active loss-window count.
        self._lost_links: Dict[FrozenSet[int], int] = {}
        #: (time, action) log of everything injected, in firing order.
        self.applied: List[Tuple[float, FaultAction]] = []
        #: Bumped on every fired action — composes into the IO model's
        #: capacity token so a tick after *any* injection (conservative
        #: but cheap) re-reads capacities instead of reusing a cached
        #: allocation.
        self.generation = 0

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def _expand(self, idx: int, event: FaultEvent,
                base: float) -> List[Tuple[float, FaultAction]]:
        t0 = base + event.time
        if event.kind == "crash":
            return [
                (t0, FaultAction("crash", idx, rank=event.rank)),
                (t0 + event.repair_after,
                 FaultAction("repair", idx, rank=event.rank)),
            ]
        if event.kind == "slow_disk":
            return [
                (t0, FaultAction("slow_disk.start", idx, rank=event.rank,
                                 factor=event.factor)),
                (t0 + event.duration,
                 FaultAction("slow_disk.end", idx, rank=event.rank,
                             factor=event.factor)),
            ]
        return [
            (t0, FaultAction("link_loss.start", idx, rank=event.rank,
                             peer=event.peer)),
            (t0 + event.duration,
             FaultAction("link_loss.end", idx, rank=event.rank,
                         peer=event.peer)),
        ]

    def arm(self, sim: Simulator, handler: Handler) -> int:
        """Schedule every absolute-time event on *sim*; triggered
        events wait for :meth:`fire_trigger`.  Returns the number of
        actions scheduled."""
        self._sim = sim
        self._handler = handler
        count = 0
        for idx, event in enumerate(self.plan.events):
            if event.trigger is not None:
                continue
            for t, action in self._expand(idx, event, 0.0):
                sim.schedule_at(t, self._fire, action)
                count += 1
        return count

    def fire_trigger(self, name: str, now: Optional[float] = None) -> int:
        """The harness observed trigger *name* (e.g. the first
        re-integration transfer started): schedule that trigger's
        events at their offsets from *now*.  Only the first firing of
        each trigger arms anything — "2 s after re-integration starts"
        means the first start, not every retry."""
        if self._sim is None:
            raise RuntimeError("injector not armed; call arm() first")
        if name in self._fired_triggers:
            return 0
        self._fired_triggers.add(name)
        base = self._sim.now if now is None else now
        count = 0
        for idx, event in enumerate(self.plan.events):
            if event.trigger != name:
                continue
            for t, action in self._expand(idx, event, base):
                self._sim.schedule_at(max(t, self._sim.now),
                                      self._fire, action)
                count += 1
        return count

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _fire(self, action: FaultAction) -> None:
        now = self._sim.now if self._sim is not None else 0.0
        self.generation += 1
        if action.kind == "slow_disk.start":
            self._slow.setdefault(action.rank, []).append(action.factor)
        elif action.kind == "slow_disk.end":
            stack = self._slow.get(action.rank, [])
            if action.factor in stack:
                stack.remove(action.factor)
            if not stack:
                self._slow.pop(action.rank, None)
        elif action.kind == "link_loss.start":
            key = frozenset((action.rank, action.peer))
            self._lost_links[key] = self._lost_links.get(key, 0) + 1
        elif action.kind == "link_loss.end":
            key = frozenset((action.rank, action.peer))
            left = self._lost_links.get(key, 0) - 1
            if left > 0:
                self._lost_links[key] = left
            else:
                self._lost_links.pop(key, None)
        self.applied.append((now, action))
        OBS.metrics.inc("faults.injected")
        if OBS.bus.active:
            payload = {k: v for k, v in (("rank", action.rank),
                                         ("peer", action.peer),
                                         ("factor", action.factor))
                       if v is not None}
            OBS.bus.emit("fault.inject", t=now, action=action.kind,
                         source=action.source, **payload)
        if self._handler is not None:
            self._handler(action)

    # ------------------------------------------------------------------
    # ambient state
    # ------------------------------------------------------------------
    def capacity_factors(self) -> Dict[int, float]:
        """Degradation factors for every currently-degraded rank —
        feed straight into
        :func:`~repro.simulation.bandwidth.apply_capacity_factors`."""
        return {rank: min(stack) for rank, stack in self._slow.items()}

    def link_blocked(self, ranks: Iterable[int]) -> bool:
        """Would a transfer spanning *ranks* cross a dead link?"""
        if not self._lost_links:
            return False
        rs = set(ranks)
        return any(pair <= rs for pair in self._lost_links)


# ----------------------------------------------------------------------
# report fragments shared by the harnesses that arm an injector
# ----------------------------------------------------------------------
def render_fault_timeline(faults: Sequence[Mapping[str, object]]
                          ) -> List[str]:
    """The ``## fault timeline`` section of a harness report, from the
    fired-fault records a harness keeps of :attr:`FaultInjector.applied`
    (``{t, kind, rank, peer}``, plus ``factor`` where disks degrade)."""
    lines = ["## fault timeline", ""]
    if not faults:
        return lines + ["no faults fired."]
    lines += ["| t(s) | action | detail |", "| --- | --- | --- |"]
    for f in faults:
        detail = [f"{key} {f[key]}" for key in ("rank", "peer", "factor")
                  if f.get(key) is not None]
        lines.append(f"| {float(f['t']):.1f} | {f['kind']} | "
                     f"{', '.join(detail)} |")
    return lines


def render_audit_rows(audits: Sequence[Mapping[str, object]],
                      row: str) -> List[str]:
    """One table line per periodic audit — *row* formatted with the
    audit's fields; past twelve audits only the first and last six are
    shown and the gap is stated."""
    if len(audits) <= 12:
        return [row.format(**a) for a in audits]
    return ([row.format(**a) for a in (*audits[:6], *audits[-6:])]
            + [f"(… {len(audits) - 12} audits elided …)"])
