"""Per-server admission control and queue draining on the fluid IO model.

Each storage server fronts a FIFO queue of client requests.  The
coordinator keeps one persistent open-ended :class:`FluidFlow` per
queue (``serve:<rank>``, coefficient 1.0 on that server's disk) whose
``rate_cap`` is set every tick to exactly the rate that would drain
the start-of-tick backlog — so the fair-share solver arbitrates
between foreground serving and background migration on equal terms,
and a resize's byte-moving flows directly slow the queues they share
disks with.

Tick protocol (driven by :func:`repro.serving.harness.run_serve`):

1. :meth:`AdmissionCoordinator.begin_tick` — set each serve flow's
   demand from the current backlog.  Mutating ``rate_cap`` per tick
   deliberately invalidates the allocation cache's demand check; the
   cache only re-engages across genuinely idle stretches.
2. The simulator runs the tick's events (arrivals, resizes).
3. ``io.step(now)`` solves the allocation.
4. :meth:`AdmissionCoordinator.end_tick` — drain each queue FIFO by
   the achieved bytes and fire completions, possibly held back by the
   flow controller's backpressure delay.

Requests arriving *during* a tick never drain in that same tick: the
budget computed in step 1 covers at most the backlog that existed
before they arrived, and FIFO order spends it on older requests first.

Event family (gated per request on the bus's subscription table, as
``bus.takes`` reads it, else on ``bus.active``):

``serve.enqueue``   rid, server, nbytes, pop, depth
``serve.reject``    rid, server, depth, pop
``serve.complete``  rid, server, pop, latency, delay
``serve.queue``     server, depth, bound        (per active queue, per tick)
``serve.failover``  server, moved               (queue evacuated on resize)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.obs.runtime import OBS
from repro.simulation.engine import Simulator
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import IOModel

from repro.serving.flowcontrol import FlowController

__all__ = ["AdmissionCoordinator", "Request"]

#: Flow-name prefix for per-server serve streams.
SERVE_FLOW_PREFIX = "serve:"

#: A request is complete when its remainder drops below this (float
#: drains leave 1e-12-scale residues).
_DRAIN_EPS = 1e-6


@dataclass
class Request:
    """One client request, as the coordinator sees it.

    ``nbytes`` is the *disk* cost of the request — the harness charges
    a write its replication amplification up front, so a 1 MiB write
    with r=2 queues as 2 MiB of disk work on its primary.  That is a
    deliberate simplification (replica writes really land on several
    disks); it keeps each request on one queue while conserving total
    disk bytes.
    """

    rid: int
    pop: str                      # population name ("closed", "open")
    oid: int
    is_write: bool
    server: int
    nbytes: float
    t_enqueue: float
    on_complete: Optional[Callable[["Request", float], None]] = None
    on_reject: Optional[Callable[["Request"], None]] = None
    #: Bytes still to serve; initialised from ``nbytes``.
    remaining: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError("nbytes must be > 0")
        self.remaining = float(self.nbytes)


class _Counters(dict):
    """The ``serve.*`` counters by name, each registered on its first
    increment: a snapshot lists only counters that have counted."""

    def __missing__(self, name: str):
        counter = self[name] = OBS.metrics.counter(name)
        return counter


class AdmissionCoordinator:
    """Bounded per-server request queues + flow-controller policy."""

    def __init__(self, sim: Simulator, io: IOModel,
                 controller: FlowController, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be > 0")
        self.sim = sim
        self.io = io
        self.controller = controller
        self.dt = dt
        self.queues: Dict[int, Deque[Request]] = {}
        self._flows: Dict[int, FluidFlow] = {}
        #: Set by the harness each tick: is migration/recovery active?
        self.background_active = False
        # -- accounting (per population name) --------------------------
        self.enqueued: Dict[str, int] = {}
        self.completed: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}
        self.latencies: Dict[str, List[float]] = {}
        self.failovers = 0
        self.max_depth = 0
        self.served_bytes = 0.0
        self._counters = _Counters()

    # ------------------------------------------------------------------
    def enqueue(self, req: Request) -> bool:
        """Admit *req* to its server's queue, or reject it.

        On rejection the request's ``on_reject`` callback (if any)
        fires synchronously — closed-loop clients use it to schedule a
        deterministic retry."""
        server = req.server
        q = self.queues.get(server)
        if q is None:
            q = self.queues[server] = deque()
        depth = len(q)
        bus = OBS.bus
        if not self.controller.admit(server, depth):
            self.rejected[req.pop] = self.rejected.get(req.pop, 0) + 1
            self._counters["serve.rejected"].value += 1
            if bus.takers.get("serve.reject", bus.every):
                bus.emit("serve.reject", rid=req.rid, server=server,
                         depth=depth, pop=req.pop)
            elif bus.active:
                bus.ordinal += 1
            if req.on_reject is not None:
                req.on_reject(req)
            return False
        q.append(req)
        if server not in self._flows:
            self._ensure_flow(server)
        depth += 1
        if depth > self.max_depth:
            self.max_depth = depth
        self.enqueued[req.pop] = self.enqueued.get(req.pop, 0) + 1
        self._counters["serve.enqueued"].value += 1
        if bus.takers.get("serve.enqueue", bus.every):
            bus.emit("serve.enqueue", rid=req.rid, server=server,
                     nbytes=req.nbytes, pop=req.pop, depth=depth)
        elif bus.active:
            bus.ordinal += 1
        return True

    def _ensure_flow(self, rank: int) -> FluidFlow:
        flow = self._flows.get(rank)
        if flow is None:
            # Open-ended (total_bytes=None) so it never self-finishes;
            # empty `ranks` so membership churn cannot interrupt it —
            # the failover path retires it explicitly instead.
            flow = FluidFlow(
                name=f"{SERVE_FLOW_PREFIX}{rank}",
                coefficients={rank: 1.0},
                total_bytes=None,
                rate_cap=0.0,
            )
            self._flows[rank] = self.io.flows.add(flow)
        return flow

    # ------------------------------------------------------------------
    def begin_tick(self) -> None:
        """Point each serve flow's demand at its start-of-tick backlog."""
        dt = self.dt
        for rank, q in self.queues.items():
            backlog = sum(r.remaining for r in q)
            self._ensure_flow(rank).rate_cap = backlog / dt

    def end_tick(self, now: float, achieved: Dict[str, float]) -> None:
        """Drain queues FIFO by the achieved allocation; complete (and
        possibly delay) finished requests; emit depth samples."""
        bus = OBS.bus
        bound = self.controller.queue_bound()
        for rank in sorted(self.queues):
            q = self.queues[rank]
            budget = achieved.get(f"{SERVE_FLOW_PREFIX}{rank}", 0.0) * self.dt
            while q and budget > _DRAIN_EPS:
                head = q[0]
                take = min(head.remaining, budget)
                head.remaining -= take
                budget -= take
                if head.remaining <= _DRAIN_EPS:
                    q.popleft()
                    self._complete(head, rank, now)
            if bus.active:
                bus.emit("serve.queue", server=rank, depth=len(q),
                         bound=bound)

    def _complete(self, req: Request, rank: int, now: float) -> None:
        delay = self.controller.completion_delay(
            rank, len(self.queues[rank]), self.background_active)
        done_t = now + delay
        latency = done_t - req.t_enqueue
        self.latencies.setdefault(req.pop, []).append(latency)
        self.completed[req.pop] = self.completed.get(req.pop, 0) + 1
        self.served_bytes += req.nbytes
        self._counters["serve.completed"].value += 1
        bus = OBS.bus
        if bus.takers.get("serve.complete", bus.every):
            bus.emit("serve.complete", rid=req.rid, server=rank,
                     pop=req.pop, latency=latency, delay=delay)
        elif bus.active:
            bus.ordinal += 1
        if req.on_complete is not None:
            # Always via the simulator, even at zero delay: completions
            # then interleave with arrivals in the documented
            # (time, seq) order, not in queue-drain order.
            self.sim.schedule_at(done_t, req.on_complete, req, done_t)

    # ------------------------------------------------------------------
    def failover(self, inactive: List[int],
                 relocate: Callable[[Request], int]) -> int:
        """Evacuate queues whose server just left the ring.

        Each stranded request is re-pointed by *relocate* and pushed
        back through :meth:`enqueue` — admission applies, so a
        controller's bound holds even under failover pressure, and a
        rejected failover fires the request's ``on_reject`` like any
        other rejection.  Latency keeps the original enqueue time: the
        client has been waiting the whole time.  Returns how many
        requests moved."""
        moved = 0
        bus = OBS.bus
        for rank in sorted(inactive):
            q = self.queues.pop(rank, None)
            flow = self._flows.pop(rank, None)
            if flow is not None:
                self.io.flows.remove(flow)
            if not q:
                continue
            if bus.active:
                bus.emit("serve.failover", server=rank, moved=len(q))
            for req in q:
                req.server = relocate(req)
                # Re-admission counts it again; undo the double-count.
                self.enqueued[req.pop] = self.enqueued.get(req.pop, 1) - 1
                self.enqueue(req)
                moved += 1
            self.failovers += len(q)
        return moved

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Retire the persistent serve streams (each emits
        ``flow.cancel``) so flow accounting closes out cleanly at the
        end of a run.  Requests still queued stay admitted-but-
        unfinished — surfaced as :attr:`outstanding`, never silently
        completed."""
        for rank in sorted(self._flows):
            self.io.flows.remove(self._flows[rank])
        self._flows.clear()

    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet completed."""
        return sum(len(q) for q in self.queues.values())
