"""The six fixed workloads of the end-to-end benchmark.

Each workload is three functions with the timed region between them:

* ``make_inputs(seed, sizes)`` — everything random is drawn here, from
  ``--seed``, inside the benchmark; the program under test receives
  only the generated inputs;
* ``run(inputs, check)`` — the timed call into ``repro`` (one *rep*);
  returns the raw result objects untouched;
* ``summarize(inputs, raw, counts)`` — after the clock stopped: verdict,
  op counts, simulated statistics and the canonical fingerprint the
  digest is taken over.

Sizes are frozen in :data:`SIZES` (tuned once, on seed 7, so that one
rep takes 1.5-2.5 s on the 2-core reference box); :data:`QUICK_SIZES`
are the tiny ones behind ``--quick`` and the self-check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.elastic import ElasticConsistentHash
from repro.experiments.three_phase import run_three_phase
from repro.faults.harness import run_chaos
from repro.faults.plan import FaultEvent, FaultPlan
from repro.kvstore.harness import run_kv_churn
from repro.serving.harness import run_serve
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import IOModel

__all__ = ["Outcome", "Workload", "WORKLOADS", "SIZES", "QUICK_SIZES",
           "moved_bytes"]

GB = 1e9
MB = 1e6


@dataclass
class Outcome:
    """What one rep produced, reduced to numbers."""

    #: The workload's unit of work done (see ``Workload.ops_unit``).
    ops: int
    #: Ops whose outcome breaks the verdict (0 on a healthy run) — the
    #: contract's ``failed``.
    failed: int
    #: Simulated ops that failed or were refused / ops the simulated
    #: clients attempted — ``ops_failed_share``.  Refusals are part of
    #: what the system is modelled to do (backpressure, reads during an
    #: outage), so they are a simulated statistic, not a verdict.
    sim_failed: int
    sim_attempted: int
    #: Simulated seconds advanced (``None``: no simulated clock).
    sim_s: Optional[float]
    sim_p99_s: Optional[float] = None
    sim_client_mbps: Optional[float] = None
    #: Why the outputs are wrong (empty = correct).
    problems: List[str] = field(default_factory=list)
    #: Canonical result fingerprint (JSON-able; digest input).
    fingerprint: Dict[str, object] = field(default_factory=dict)
    #: Result-object numbers the per-layer metrics read.
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops_unit: str
    make_inputs: Callable[[int, dict], dict]
    run: Callable[[dict, bool], object]
    summarize: Callable[[dict, object, Dict[str, object]], Outcome]
    #: Measure the three observability taxes here (the harness must take
    #: ``check=``): one extra rep each without live checkers, with a
    #: JSONL sink, with the profiler.
    taxed: bool = False


# ----------------------------------------------------------------------
# frozen sizes
# ----------------------------------------------------------------------
SIZES: Dict[str, dict] = {
    "place_mix": dict(n=100, replicas=3, fresh=30_000, hot=1_000,
                      hot_rounds=20, catalog=60_000, writes=2_500,
                      schedule=(80, 60, 40, 60, 80, 100), write_at=40),
    "fig7_n1000": dict(n=1000, off_count=400, scale=1.0),
    "chaos_n30": dict(n=30, off_count=12, scale=0.5),
    "serve_resize": dict(n=10, duration=120.0, resize_at=40.0,
                         resize_back_at=80.0),
    "kv_churn": dict(nodes=15, replicas=3, clients=32, keys=900,
                     duration=600.0),
    "flow_storm": dict(servers=200, ticks=500, streams=8, per_tick=6,
                       fanout=6, lo=200 * MB, hi=2 * GB,
                       stream_cap=400 * MB, disk_bw=64 * MB),
}

QUICK_SIZES: Dict[str, dict] = {
    "place_mix": dict(n=20, replicas=3, fresh=400, hot=50, hot_rounds=2,
                      catalog=1_500, writes=60,
                      schedule=(16, 12, 8, 12, 16, 20), write_at=8),
    "fig7_n1000": dict(n=20, off_count=8, scale=0.02),
    "chaos_n30": dict(n=10, off_count=4, scale=0.05),
    "serve_resize": dict(n=10, duration=12.0, resize_at=4.0,
                         resize_back_at=8.0),
    "kv_churn": dict(nodes=5, replicas=3, clients=4, keys=24,
                     duration=60.0),
    "flow_storm": dict(servers=20, ticks=30, streams=2, per_tick=2,
                       fanout=3, lo=20 * MB, hi=200 * MB,
                       stream_cap=40 * MB, disk_bw=64 * MB),
}


def moved_bytes(counts: Dict[str, object]) -> float:
    """Simulated migration + re-integration + recovery bytes."""
    return float(counts.get("migration.bytes", 0)
                 + counts.get("migration.full_bytes", 0)
                 + counts.get("recovery.bytes", 0))


# ----------------------------------------------------------------------
# place_mix — hashring + core only
# ----------------------------------------------------------------------
def _place_inputs(seed: int, s: dict) -> dict:
    rng = np.random.default_rng(seed)

    def oids(k: int) -> np.ndarray:
        return rng.integers(1, 2 ** 40, size=k)

    return dict(s, fresh=oids(s["fresh"]).tolist(),
                hot=oids(s["hot"]).tolist(), catalog=oids(s["catalog"]),
                writes=oids(s["writes"]).tolist())


def _place_run(inp: dict, check: bool) -> dict:
    ech = ElasticConsistentHash(n=inp["n"], replicas=inp["replicas"])
    locate = ech.locate
    unplaceable = 0
    fresh = []
    for oid in inp["fresh"]:
        try:
            fresh.append(locate(oid).servers)
        except LookupError:
            unplaceable += 1
    for _ in range(inp["hot_rounds"]):
        for oid in inp["hot"]:
            locate(oid)
    sweeps = []
    wrote = False
    for k in inp["schedule"]:
        ech.set_active(k)
        sweeps.append(ech.locate_bulk(inp["catalog"]))
        if k == inp["write_at"] and not wrote:
            wrote = True
            for oid in inp["writes"]:
                ech.record_write(oid)
    return dict(ech=ech, fresh=fresh, sweeps=sweeps,
                unplaceable=unplaceable)


def _place_summarize(inp: dict, raw: dict, counts: dict) -> Outcome:
    ech, sweeps = raw["ech"], raw["sweeps"]
    problems = []
    failed = raw["unplaceable"] + sum(
        int(np.count_nonzero(~b.ok)) for b in sweeps)
    # Scalar and bulk placement must agree (1k sample, final version).
    sample = inp["catalog"][:1000].tolist()
    rows = sweeps[-1].servers[:len(sample)].tolist()
    for oid, row in zip(sample, rows):
        if list(ech.locate(oid).servers) != row:
            problems.append(f"scalar/bulk placement differ for oid {oid}")
            break
    if len(ech.dirty) != len(set(inp["writes"])):
        problems.append("dirty table does not hold one entry per "
                        "offloaded write")
    h = hashlib.sha256()
    h.update(repr(raw["fresh"]).encode())
    for b in sweeps:
        h.update(np.ascontiguousarray(b.servers, dtype=np.int64).tobytes())
        h.update(np.packbits(b.skipped_inactive).tobytes())
    ops = (len(inp["fresh"]) + inp["hot_rounds"] * len(inp["hot"])
           + len(sweeps) * len(inp["catalog"]) + len(inp["writes"]))
    return Outcome(
        ops=ops, failed=failed, sim_failed=failed, sim_attempted=ops,
        sim_s=None, problems=problems,
        fingerprint=dict(placements=h.hexdigest(), ops=ops,
                         version=ech.current_version,
                         dirty=len(ech.dirty)))


# ----------------------------------------------------------------------
# fig7_n1000 — the three-phase replay at n=1000
# ----------------------------------------------------------------------
_FIG7_MODES = ("full", "selective")


def _fig7_run(inp: dict, check: bool) -> list:
    # `original` is left out: it does not finish in 10 min at n=1000.
    return [run_three_phase(mode=mode, n=inp["n"],
                            off_count=inp["off_count"], scale=inp["scale"])
            for mode in _FIG7_MODES]


def _fig7_summarize(inp: dict, raw: list, counts: dict) -> Outcome:
    ticks = sum(len(r.times) for r in raw)
    sim_s = sum(r.duration for r in raw)
    unfinished = sum(1 for r in raw if "phase3" not in r.phase_ends)
    problems = [f"{r.mode}: phases unfinished at max_duration"
                for r in raw if "phase3" not in r.phase_ends]
    by_mode = {r.mode: r for r in raw}
    if by_mode["selective"].migrated_bytes >= by_mode["full"].migrated_bytes:
        problems.append("selective re-integration moved no less than full")
    client_bytes = sum(sum(r.throughput) for r in raw)   # dt = 1 s
    return Outcome(
        ops=ticks, failed=unfinished, sim_failed=unfinished,
        sim_attempted=3 * len(raw), sim_s=sim_s,
        sim_client_mbps=client_bytes / sim_s / MB, problems=problems,
        fingerprint={r.mode: dict(
            duration=r.duration, phase_ends=r.phase_ends,
            migrated=r.migrated_bytes, rereplicated=r.rereplicated_bytes,
            throughput=hashlib.sha256(
                repr(r.throughput).encode()).hexdigest(),
            migration_rate=hashlib.sha256(
                repr(r.migration_rate).encode()).hexdigest())
            for r in raw})


# ----------------------------------------------------------------------
# chaos_n30 — three-phase under crashes, on the replicated dirty table
# ----------------------------------------------------------------------
def _chaos_inputs(seed: int, s: dict) -> dict:
    return dict(s, seed=seed, plan=FaultPlan.three_phase_default(
        seed, n=s["n"], off_count=s["off_count"]))


def _chaos_run(inp: dict, check: bool):
    return run_chaos(inp["seed"], n=inp["n"], off_count=inp["off_count"],
                     scale=inp["scale"], plan=inp["plan"], check=check)


def _chaos_summarize(inp: dict, r, counts: dict) -> Outcome:
    final = r.final_audit
    stranded = len(r.lost_objects) + len(r.degraded_objects)
    problems = list(r.violations)
    if not r.ok:
        problems.append("chaos verdict not ok")
    for key in ("lost", "under_replicated"):
        if int(final.get(key, 1)) != 0:
            problems.append(f"final audit: {key}={final.get(key)}")
    kv = final.get("kv") or {}
    for key in ("lost_acked", "under_replicated"):
        if int(kv.get(key, 0)) != 0:
            problems.append(f"final kv audit: {key}={kv[key]}")
    ticks = int(round(r.duration))                       # dt = 1 s
    reads = int(round(r.phase_ends.get("phase3", r.duration)))
    objects = int(final.get("objects", 0))
    return Outcome(
        ops=ticks, failed=stranded,
        sim_failed=stranded + r.unavailable_reads,
        sim_attempted=reads + objects, sim_s=r.duration,
        sim_client_mbps=r.mean_throughput / MB, problems=problems,
        fingerprint=dict(
            duration=r.duration, phase_ends=r.phase_ends, faults=r.faults,
            transfers=r.transfers, wasted=r.wasted_bytes,
            degraded_reads=r.degraded_reads,
            unavailable_reads=r.unavailable_reads,
            audits=len(r.audits), final_audit=final,
            dirty_backlog=r.dirty_backlog, events_seen=r.events_seen,
            peak=r.peak_throughput, mean=r.mean_throughput),
        extras=dict(unavailable_reads=r.unavailable_reads,
                    degraded_reads=r.degraded_reads))


# ----------------------------------------------------------------------
# serve_resize — request-level serving across a resize
# ----------------------------------------------------------------------
def _serve_run(inp: dict, check: bool):
    # Closed loop: 200 clients, think 1 s.  Open loop: 4M users x 5e-5
    # = 200 req/s.  Latency runs from enqueue, in simulated time.
    return run_serve(inp["seed"], controller="adaptive", n=inp["n"],
                     duration=inp["duration"], resize_at=inp["resize_at"],
                     resize_back_at=inp["resize_back_at"], check=check)


def _serve_summarize(inp: dict, r, counts: dict) -> Outcome:
    completed = sum(r.completed.values())
    rejected = sum(r.rejected.values())
    offered = sum(r.enqueued.values()) + rejected
    problems = list(r.violations)
    if not r.ok:
        problems.append("serve verdict not ok (queue bound or SLO)")
    return Outcome(
        ops=completed, failed=0, sim_failed=rejected, sim_attempted=offered,
        sim_s=float(r.duration), sim_p99_s=r.latency["overall"]["p99"],
        sim_client_mbps=r.served_bytes / r.duration / MB,
        problems=problems,
        fingerprint=dict(
            latency=r.latency, enqueued=r.enqueued, completed=r.completed,
            rejected=r.rejected, closed_retries=r.closed_retries,
            failovers=r.failovers, outstanding=r.outstanding,
            max_queue_depth=r.max_queue_depth,
            migration_bytes=r.migration_bytes,
            served_bytes=r.served_bytes, events_seen=r.events_seen),
        extras=dict(max_queue_depth=r.max_queue_depth,
                    reject_ratio=rejected / offered if offered else 0.0))


# ----------------------------------------------------------------------
# kv_churn — quorum KV under view changes and faults
# ----------------------------------------------------------------------
def _kv_inputs(seed: int, s: dict) -> dict:
    """One link-loss window, then one crash with delayed repair.  The
    windows never overlap, so a replica set loses at most one member at
    a time and no seed can starve a write of its quorum (the harness's
    own generator lets them overlap: seed 6 quarantines a write)."""
    rng = np.random.default_rng(seed)
    d, nodes = s["duration"], s["nodes"]
    a, b = sorted(int(x) for x in rng.choice(
        np.arange(1, nodes + 1), size=2, replace=False))
    events = [
        FaultEvent(kind="link_loss", rank=a, peer=b,
                   time=round(float(rng.uniform(0.05, 0.10)) * d, 3),
                   duration=round(float(rng.uniform(0.04, 0.08)) * d, 3)),
        FaultEvent(kind="crash", rank=int(rng.integers(2, nodes + 1)),
                   time=round(float(rng.uniform(0.22, 0.30)) * d, 3),
                   repair_after=round(float(rng.uniform(0.15, 0.25)) * d,
                                      3)),
    ]
    return dict(s, seed=seed, plan=FaultPlan(events=events, seed=seed))


def _kv_run(inp: dict, check: bool):
    return run_kv_churn(inp["seed"], nodes=inp["nodes"],
                        replicas=inp["replicas"], clients=inp["clients"],
                        keys=inp["keys"], duration=inp["duration"],
                        plan=inp["plan"], check=check)


def _kv_summarize(inp: dict, r, counts: dict) -> Outcome:
    stats = r.store_stats
    problems = list(r.violations)
    if not r.ok:
        problems.append("kv-churn verdict not ok")
    for key in ("lost_acked", "under_replicated"):
        if int(r.final_audit.get(key, 1)) != 0:
            problems.append(f"final audit: {key}={r.final_audit.get(key)}")
    failed = r.quarantined_writes + r.unavailable_reads
    writes = stats["writes_acked"] + stats["writes_failed"]
    return Outcome(
        ops=r.ops_issued, failed=failed, sim_failed=failed,
        sim_attempted=r.ops_issued, sim_s=r.duration, problems=problems,
        fingerprint=dict(
            duration=r.duration, final_epoch=r.final_epoch, faults=r.faults,
            store_stats=stats, ops=r.ops_issued, retried=r.retried_writes,
            audits=len(r.audits), final_audit=r.final_audit,
            events_seen=r.events_seen),
        extras=dict(repair_copies=stats["repair_copies"],
                    write_fail_ratio=(stats["writes_failed"] / writes
                                      if writes else 0.0)))


# ----------------------------------------------------------------------
# flow_storm — the fair-share solver with no reuse to hide behind
# ----------------------------------------------------------------------
def _storm_inputs(seed: int, s: dict) -> dict:
    rng = np.random.default_rng(seed)
    ticks, per_tick = s["ticks"], s["per_tick"]
    targets = [[(rng.choice(s["servers"], size=s["fanout"],
                            replace=False) + 1).tolist()
                for _ in range(per_tick)] for _ in range(ticks)]
    sizes = rng.uniform(s["lo"], s["hi"], size=(ticks, per_tick)).tolist()
    return dict(s, targets=targets, sizes=sizes)


def _storm_run(inp: dict, check: bool) -> dict:
    servers, streams = inp["servers"], inp["streams"]
    caps = {r: inp["disk_bw"] for r in range(1, servers + 1)}
    io = IOModel(lambda: caps, dt=1.0, capacity_token=lambda: 0)
    for i in range(streams):
        io.flows.add(FluidFlow(
            name=f"stream{i}", rate_cap=inp["stream_cap"],
            coefficients={r: 1.0 / servers for r in caps}))
    share = 1.0 / inp["fanout"]
    finite = []
    now = 0.0
    for ranks, sizes in zip(inp["targets"], inp["sizes"]):
        for dest, size in zip(ranks, sizes):
            finite.append(io.flows.add(FluidFlow(
                name="bulk", total_bytes=size,
                coefficients={r: share for r in dest})))
        now += 1.0
        io.step(now)
    # Drain so every finite flow's byte total can be checked.
    limit = now + 10 * inp["ticks"]
    while len(io.flows) > streams and now < limit:
        now += 1.0
        io.step(now)
    return dict(io=io, finite=finite, caps=caps)


def _storm_summarize(inp: dict, raw: dict, counts: dict) -> Outcome:
    io, finite = raw["io"], raw["finite"]
    problems = []
    undone = sum(1 for f in finite if not f.done)
    if undone:
        problems.append(f"{undone} finite flows never completed")
    # Every flow's coefficients sum to 1, so the granted rates can never
    # add up to more than the cluster's total disk bandwidth.
    total_cap = sum(raw["caps"].values())
    worst = max(sum(sample.values()) for _, sample in io.samples)
    if worst > total_cap * (1 + 1e-9):
        problems.append(f"allocation {worst} exceeds capacity {total_cap}")
    ticks = len(io.samples)
    moved = sum(sum(sample.values()) for _, sample in io.samples)
    return Outcome(
        ops=ticks, failed=undone, sim_failed=undone,
        sim_attempted=len(finite), sim_s=float(ticks),
        sim_client_mbps=moved / ticks / MB, problems=problems,
        fingerprint=dict(
            ticks=ticks, flows=len(finite),
            samples=hashlib.sha256(
                repr(io.samples).encode()).hexdigest(),
            progressed=hashlib.sha256(
                repr([f.progressed for f in finite]).encode()).hexdigest()))


def _seeded(seed: int, s: dict) -> dict:
    return dict(s, seed=seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "place_mix",
        "hashring+core only: fresh and hot scalar locates, cold bulk sweeps "
        "per resize version and dirty-table writes side by side; baseline "
        "for the placement-backend shootout",
        "placements", _place_inputs, _place_run, _place_summarize),
    Workload(
        "fig7_n1000",
        "the paper's Fig. 7 replay (full then selective) at n=1000: cluster "
        "bookkeeping dominates and the solver is bypassed, the unexplained "
        "388x-vs-7.2x run",
        "engine ticks", lambda seed, s: dict(s), _fig7_run, _fig7_summarize),
    Workload(
        "chaos_n30",
        "same three-phase load with crashes, interruptible transfers, "
        "recovery, periodic audits and the dirty table on the replicated "
        "KV; only workload touching faults",
        "engine ticks", _chaos_inputs, _chaos_run, _chaos_summarize,
        taxed=True),
    Workload(
        "serve_resize",
        "closed loop of 200 clients plus open loop at 200 req/s across a "
        "resize: only workload where serving runs, heaviest on the event "
        "heap, scalar hash64 and live checkers",
        "requests completed", _seeded, _serve_run, _serve_summarize,
        taxed=True),
    Workload(
        "kv_churn",
        "quorum reads/writes under view changes, anti-entropy and audits: "
        "kvstore does the work while cluster, core and serving are "
        "bypassed",
        "client ops issued", _kv_inputs, _kv_run, _kv_summarize),
    Workload(
        "flow_storm",
        "200-server max-min-fair solves with flows starting and finishing "
        "every tick so allocation reuse never applies: the only place a "
        "solver change can show",
        "ticks", _storm_inputs, _storm_run, _storm_summarize),
)}
