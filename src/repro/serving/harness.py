"""Replay an elastic resize under front-door load.

:func:`run_serve` stands up the full stack — elastic cluster, fluid
IO, admission coordinator, one closed-loop and one open-loop
population — then turns ``off_count`` servers off at ``resize_at``
and back on at ``resize_back_at``.  Writes issued while the cluster
is shrunk dirty the metadata table, so the resize-back triggers a
rate-limited selective reintegration whose migration flow competes
with foreground serving for the surviving disks.  What the clients
feel is the report: p50/p99/p999 latency (via the nearest-rank
percentiles of :mod:`repro.obs.analytics`), rejects, max queue depth
against the controller's declared bound, and an SLO verdict.

Everything is a pure function of ``(seed, parameters)``: placement,
jitter, interarrival gaps and retry backoff all come from FNV-1a hash
streams, so a same-seed run replays byte-identically — the property
``tests/test_goldens.py`` pins against ``.github/golden/serve.sha256``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.cluster import ElasticCluster
from repro.cluster.runtime import DISK_BW, REINTEGRATION_RATE, ClusterRuntime
from repro.faults.plan import require_periods
from repro.hashring.hashing import hash64
from repro.obs.analytics import percentile
from repro.obs.invariants import checked_run, render_invariants
from repro.obs.runtime import OBS
from repro.simulation.engine import Simulator

from repro.serving.clients import (
    ClosedLoopPopulation,
    Draw,
    OpenLoopPopulation,
)
from repro.serving.coordinator import AdmissionCoordinator, Request
from repro.serving.flowcontrol import FlowController, make_controller

__all__ = ["ServeResult", "render_serve_report", "run_serve"]

MB = 10 ** 6

#: Every request reads or writes one object of this size.
REQUEST_BYTES = 1 * MB
#: Admission tick, simulated seconds.
DT = 0.5
#: Objects written before the clients start, so early reads hit.
PREPOPULATE = 256
#: Fresh oids are minted consecutively and hashed this many at a time.
PREHASH_BLOCK = 4096


def latency_stats(values: List[float]) -> Dict[str, Optional[float]]:
    """Nearest-rank summary of a latency sample; honest ``None`` for
    every statistic when there are no completions."""
    if not values:
        return {"count": 0, "p50": None, "p99": None, "p999": None,
                "mean": None, "max": None}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 0.50),
        "p99": percentile(ordered, 0.99),
        "p999": percentile(ordered, 0.999),
        "mean": sum(ordered) / len(ordered),
        "max": ordered[-1],
    }


@dataclass
class ServeResult:
    """Client-perceived outcome of one resize-under-load replay."""

    controller: str
    seed: int
    n: int
    replicas: int
    off_count: int
    duration: float
    resize_at: float
    resize_back_at: float
    #: Per-population latency summaries plus a pooled ``overall``.
    latency: Dict[str, Dict[str, Optional[float]]]
    enqueued: Dict[str, int]
    completed: Dict[str, int]
    rejected: Dict[str, int]
    closed_retries: int
    failovers: int
    outstanding: int              # admitted but unfinished at cutoff
    max_queue_depth: int
    queue_bound: int
    migration_bytes: float
    served_bytes: float
    slo_p99: float
    #: None when there were no completions to judge.
    slo_met: Optional[bool]
    #: Left of a re-integration flow still live at the cutoff.
    migration_unfinished_bytes: float = 0.0
    violations: List[str] = field(default_factory=list)
    checkers: int = 0
    events_seen: int = 0

    @property
    def bounded(self) -> bool:
        """Did every observed queue depth respect the declared bound?"""
        return self.max_queue_depth <= self.queue_bound

    @property
    def ok(self) -> bool:
        return (self.bounded and not self.violations
                and self.slo_met is not False)


def run_serve(
    seed: int = 7,
    controller: str = "adaptive",
    n: int = 10,
    replicas: int = 2,
    off_count: int = 4,
    clients: int = 200,
    users: int = 4_000_000,
    per_user_rate: float = 5e-5,
    write_ratio: float = 0.3,
    duration: float = 180.0,
    resize_at: float = 60.0,
    resize_back_at: float = 120.0,
    slo_p99: float = 3.0,
    check: bool = True,
) -> ServeResult:
    """Serve a mixed open/closed population across a resize.

    The open-loop population models ``users`` users each issuing
    ``per_user_rate`` requests/s — millions of users collapse into a
    single arrival rate, which is how the population scales without
    per-user state.  ``write_ratio`` of requests are writes, charged
    ``replicas * REQUEST_BYTES`` of disk work on their primary and
    materialised into the object table on completion (so the shrunken
    cluster accumulates a real dirty backlog for the resize-back to
    reintegrate).  *duration* and *slo_p99* are simulated seconds and
    must be finite and ``> 0``.  Disks and the re-integration rate
    limit are the §V-A testbed's (:mod:`repro.cluster.runtime`).
    """
    if not 0 <= off_count < n:
        raise ValueError("off_count must be in [0, n)")
    if n - off_count < replicas:
        raise ValueError("shrunken cluster cannot hold the replicas")
    if not 0.0 < resize_at < resize_back_at < duration:
        raise ValueError("need 0 < resize_at < resize_back_at < duration")
    if not 0.0 <= write_ratio <= 1.0:
        raise ValueError("write_ratio must be in [0, 1]")
    require_periods(duration=duration, slo_p99=slo_p99,
                    per_user_rate=per_user_rate)

    ctrl: FlowController = make_controller(controller)
    cluster = ElasticCluster(n, replicas, disk_bandwidth=DISK_BW)
    rt = ClusterRuntime(cluster, DT, sim=Simulator())
    sim, io = rt.sim, rt.io
    coord = AdmissionCoordinator(sim, io, ctrl, DT)

    oid_counter = itertools.count(1)
    state = {"written": 0}

    def mint() -> int:
        """The next fresh oid; crossing into a new block of
        ``PREHASH_BLOCK`` hashes the whole block in one array pass."""
        oid = next(oid_counter)
        if oid % PREHASH_BLOCK == 1:
            cluster.prehash(range(oid, oid + PREHASH_BLOCK))
        return oid

    cluster.write_many([mint() for _ in range(PREPOPULATE)], REQUEST_BYTES)
    state["written"] += PREPOPULATE

    # -- request fabrication (placement + disk cost + materialisation) --
    def pick_replica(oid: int, draw: int) -> int:
        servers = cluster.ech.locate(oid).servers
        return servers[draw % len(servers)]

    def materialise(req: Request, _t: float) -> None:
        # A batch of one: nothing reads the placement `write` returns.
        cluster.write_many((req.oid,), REQUEST_BYTES)
        state["written"] += 1

    def factory(pop: str, rid: int, key: Draw) -> Request:
        is_write = key.unit(":rw") < write_ratio
        if is_write:
            oid = mint()
            server = cluster.ech.locate(oid).servers[0]
            nbytes = float(replicas * REQUEST_BYTES)
            on_complete = materialise
        else:
            oid = 1 + key.hash(":oid") % max(1, state["written"])
            server = pick_replica(oid, key.hash(":replica"))
            nbytes = float(REQUEST_BYTES)
            on_complete = None
        # Positional: matching eight keywords costs as much again as
        # building the request.
        return Request(rid, pop, oid, is_write, server, nbytes, sim.now,
                       on_complete)

    closed = ClosedLoopPopulation(
        sim, coord, factory, clients=clients, seed=seed, name="closed")
    open_pop = OpenLoopPopulation(
        sim, coord, factory, users=users, per_user_rate=per_user_rate,
        seed=seed, until=duration, name="open")

    # -- resize actions -------------------------------------------------
    def relocate(req: Request) -> int:
        if req.is_write:
            return cluster.ech.locate(req.oid).servers[0]
        return pick_replica(
            req.oid, hash64(f"{seed}:failover:{req.rid}:replica"))

    def resize_down() -> None:
        cluster.resize(n - off_count)
        gone = sorted(set(cluster.servers) - set(cluster.active_ranks()))
        coord.failover(gone, relocate)

    def resize_up() -> None:
        cluster.resize(n)
        rt.reintegrate_selective(REINTEGRATION_RATE)

    sim.schedule_at(resize_at, resize_down)
    sim.schedule_at(resize_back_at, resize_up)

    # -- run ------------------------------------------------------------
    migration_unfinished = 0.0
    with checked_run(check) as checked, OBS.spans.span(
            "serve.run", seed=seed, n=n, controller=ctrl.name):
        closed.start()
        open_pop.start()
        ticks = round(duration / DT)
        for i in range(1, ticks + 1):
            coord.begin_tick()
            now = i * DT
            sim.run_until(now)
            coord.background_active = bool(io.flows.by_name("migration"))
            achieved = io.step(now)
            coord.end_tick(now, achieved)
        coord.shutdown()
        # A re-integration still moving at the cutoff is retired like
        # the serve streams, so flow accounting closes out; what it
        # had left is reported, never silently completed.
        for flow in io.flows.by_name("migration"):
            migration_unfinished += flow.remaining
            io.flows.remove(flow)

    latency = {pop: latency_stats(vals)
               for pop, vals in sorted(coord.latencies.items())}
    pooled: List[float] = []
    for vals in coord.latencies.values():
        pooled.extend(vals)
    latency["overall"] = latency_stats(pooled)
    p99 = latency["overall"]["p99"]
    slo_met = None if p99 is None else bool(p99 <= slo_p99)

    return ServeResult(
        controller=ctrl.name,
        seed=seed, n=n, replicas=replicas, off_count=off_count,
        duration=duration, resize_at=resize_at,
        resize_back_at=resize_back_at,
        latency=latency,
        enqueued=dict(sorted(coord.enqueued.items())),
        completed=dict(sorted(coord.completed.items())),
        rejected=dict(sorted(coord.rejected.items())),
        closed_retries=closed.retries,
        failovers=coord.failovers,
        outstanding=coord.outstanding,
        max_queue_depth=coord.max_depth,
        queue_bound=ctrl.queue_bound(),
        migration_bytes=io.total_moved("migration"),
        served_bytes=coord.served_bytes,
        slo_p99=slo_p99, slo_met=slo_met,
        migration_unfinished_bytes=migration_unfinished,
        violations=checked.violations, checkers=checked.checkers,
        events_seen=checked.events_seen,
    )


def _fmt_s(v: Optional[float]) -> str:
    return "n/a" if v is None else f"{v:.3f}s"


def render_serve_report(result: ServeResult) -> str:
    """Human-readable serve report (the ``repro serve`` output)."""
    lines = [
        "# serve report",
        "",
        f"- controller: {result.controller} "
        f"(queue bound {result.queue_bound})",
        f"- cluster: n={result.n} r={result.replicas}, "
        f"{result.off_count} off at t={result.resize_at:.0f}s, "
        f"back at t={result.resize_back_at:.0f}s, "
        f"duration {result.duration:.0f}s (seed {result.seed})",
        f"- served: {result.served_bytes / MB:.0f} MB foreground, "
        f"{result.migration_bytes / MB:.0f} MB migration",
        "",
        "## client-perceived latency",
        "",
        "| population | completed | p50 | p99 | p999 | max |",
        "|---|---|---|---|---|---|",
    ]
    for pop, stats in result.latency.items():
        lines.append(
            f"| {pop} | {stats['count']} | {_fmt_s(stats['p50'])} "
            f"| {_fmt_s(stats['p99'])} | {_fmt_s(stats['p999'])} "
            f"| {_fmt_s(stats['max'])} |")
    rejected = sum(result.rejected.values())
    by_pop = ", ".join(
        f"{p}={c}" for p, c in result.rejected.items()) or "none"
    lines += [
        "",
        "## flow control",
        "",
        f"- max queue depth: {result.max_queue_depth} "
        f"(bound {result.queue_bound}) — "
        + ("bounded" if result.bounded else "**EXCEEDED**"),
        f"- rejected: {rejected} ({by_pop})",
        f"- closed-loop retries: {result.closed_retries}",
        f"- failovers on resize: {result.failovers}",
        f"- outstanding at cutoff: {result.outstanding}",
    ]
    if result.migration_unfinished_bytes > 0:
        lines.append(
            f"- migration unfinished at cutoff: "
            f"{result.migration_unfinished_bytes / MB:.0f} MB (cancelled)")
    lines += ["", *render_invariants(result)]
    if result.slo_met is None:
        slo = "n/a (no completions)"
    elif result.slo_met:
        slo = f"met (p99 <= {result.slo_p99:.3f}s)"
    else:
        slo = f"MISSED (p99 > {result.slo_p99:.3f}s)"
    verdict = "OK" if result.ok else "DEGRADED"
    lines += [
        "",
        "## outcome",
        "",
        f"- SLO: {slo}",
        f"- verdict: **{verdict}**",
    ]
    return "\n".join(lines)
