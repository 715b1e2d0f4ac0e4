"""The chaos harness: the §V-A three-phase workload replayed under a
deterministic fault plan, with the online invariant checkers attached.

This is the robustness counterpart of
:func:`repro.experiments.three_phase.run_three_phase`: same workload,
same fluid-IO substrate, but recovery and selective re-integration
move their bytes through *interruptible* transfers
(:mod:`repro.faults.transfers`) while a
:class:`~repro.faults.injector.FaultInjector` crashes servers,
degrades disks and drops links per the plan.  The discrete-event
simulator interleaves fault actions between IO ticks, so a same-seed
run is byte-identical — replayable chaos.

What the run asserts (``check=True``, the default):

* every PR-2 invariant (version monotonicity, dirty-table/write
  offloading discipline, flow accounting, span nesting, ...);
* ``no-lost-object`` — no object ever drops to zero replicas;
* ``replication-restored-after-repair`` — the final ``chaos.audit``
  shows full replication;
* ``dirty-entry-cleared-only-on-ack`` — no ``dirty.remove`` without a
  preceding ``transfer.ack`` covering the object.

``python -m repro chaos`` renders the result via
:func:`render_chaos_report` and exits 1 unless :attr:`ChaosResult.ok`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.cluster import CrashRecoveryWork, ElasticCluster
from repro.cluster.runtime import (DISK_BW, DT, MAX_DURATION, PHASE2_RATE,
                                   REINTEGRATION_RATE, ClusterRuntime,
                                   ThreePhaseLoad)
from repro.core.dirty_table import DirtyTable
from repro.faults.injector import (
    FaultAction,
    FaultInjector,
    render_audit_rows,
    render_fault_timeline,
)
from repro.faults.plan import FaultPlan, require_periods
from repro.faults.retry import RetryPolicy
from repro.kvstore.replicated import ReplicatedKVStore
from repro.faults.transfers import (
    PlannedTransfer,
    TransferJob,
    TransferManager,
)
from repro.obs.invariants import checked_run, render_invariants
from repro.obs.runtime import OBS
from repro.simulation.engine import Simulator
from repro.workloads.three_phase import three_phase_workload

__all__ = ["ChaosResult", "run_chaos", "render_chaos_report"]

#: Backstop on re-integration rounds per run — each round is one
#: transfer job; the workload needs a handful even under heavy plans.
_MAX_REINTEGRATION_ROUNDS = 25


@dataclass
class ChaosResult:
    """Everything one chaos run observed, for the report and tests."""

    seed: Optional[int]
    n: int
    replicas: int
    scale: float
    duration: float
    phase_ends: Dict[str, float] = field(default_factory=dict)
    #: Injected actions in firing order: ``{t, kind, rank, peer, factor}``.
    faults: List[Dict[str, object]] = field(default_factory=list)
    transfers: Dict[str, int] = field(default_factory=dict)
    wasted_bytes: Dict[str, float] = field(default_factory=dict)
    lost_objects: List[int] = field(default_factory=list)
    #: Objects stranded by quarantined transfers.
    degraded_objects: List[int] = field(default_factory=list)
    degraded_reads: int = 0
    unavailable_reads: int = 0
    audits: List[Dict[str, object]] = field(default_factory=list)
    final_audit: Dict[str, object] = field(default_factory=dict)
    dirty_backlog: int = 0
    violations: List[str] = field(default_factory=list)
    checkers: int = 0
    events_seen: int = 0
    peak_throughput: float = 0.0
    mean_throughput: float = 0.0

    @property
    def ok(self) -> bool:
        """Did the run end healthy: no invariant violations, nothing
        lost, nothing quarantined, replication fully restored?"""
        return (not self.violations
                and not self.lost_objects
                and not self.degraded_objects
                and int(self.final_audit.get("lost", 0)) == 0
                and int(self.final_audit.get("under_replicated", 0)) == 0)


def run_chaos(
    seed: int = 7,
    n: int = 10,
    replicas: int = 2,
    scale: float = 0.25,
    off_count: int = 4,
    plan: Optional[FaultPlan] = None,
    dt: float = DT,
    audit_every: float = 10.0,
    check: bool = True,
) -> ChaosResult:
    """Run the three-phase workload under a fault plan.

    *plan* defaults to
    :meth:`FaultPlan.three_phase_default(seed, n, off_count)
    <repro.faults.plan.FaultPlan.three_phase_default>`.  All
    randomness lives in the plan generation; the run itself is a pure
    function of (plan, parameters), which is what the byte-identical
    trace guarantee rests on.  *dt* and *audit_every* are periods in
    simulated seconds and must be finite and ``> 0``.  Disks, client
    cap, object size and the re-integration rate limit are the §V-A
    testbed's (:mod:`repro.cluster.runtime`).
    """
    if not 0 <= off_count < n:
        raise ValueError("off_count must be in [0, n)")
    if n - off_count < replicas:
        raise ValueError(
            f"phase-2 active count {n - off_count} cannot hold "
            f"{replicas} replicas; lower off_count or replicas")
    require_periods(dt=dt, audit_every=audit_every)
    if plan is None:
        plan = FaultPlan.three_phase_default(seed, n=n, off_count=off_count)
    plan.check_ranks(n)

    phases = three_phase_workload(scale=scale, phase2_rate=PHASE2_RATE)
    sim = Simulator()
    injector = FaultInjector(plan)
    # The dirty table rides the replicated KV across ALL ranks (not
    # just the always-on primaries): a crashed rank takes its metadata
    # shard down with it, and the quorum + anti-entropy machinery — not
    # single-copy luck — is what keeps the table intact.  Degrade mode
    # keeps the metadata path available through partitions; the kv.*
    # checkers watch what that costs.
    dirty_store = ReplicatedKVStore(
        list(range(1, n + 1)), replicas=min(3, n),
        link_blocked=injector.link_blocked, on_no_quorum="degrade")
    cluster = ElasticCluster(n, replicas, disk_bandwidth=DISK_BW,
                             layout_mode="uniform",
                             placement_mode="original",
                             dirty_table=DirtyTable(dirty_store))
    policy = RetryPolicy(seed=seed if seed is not None else 0)
    # Capacities follow the membership and the injector's slow-disk
    # windows; the runtime's token covers both.
    rt = ClusterRuntime(cluster, dt, sim=sim, injector=injector)
    io = rt.io
    load = ThreePhaseLoad(rt, phases)

    def transfer_coefficients(planned: PlannedTransfer,
                              _job: TransferJob) -> Dict[int, float]:
        return rt.even_coefficients(sorted(planned.ranks))

    manager = TransferManager(cluster, io.flows, policy,
                              coefficients_for=transfer_coefficients,
                              link_blocked=injector.link_blocked)

    state = {
        "desired": n,
        "crashed": set(),
        "reint_round": 0,
        "degraded_reads": 0,
        "unavailable_reads": 0,
    }
    audits: List[Dict[str, object]] = []

    def sample_read(now: float) -> None:
        """One deterministic read per tick through the degraded-read
        fallback path — exercises the replica-chain walk whenever a
        crash window leaves primaries dark."""
        if load.written == 0:
            return
        oid = (int(round(now / dt)) % load.written) + 1
        try:
            _, degraded = cluster.read_with_fallback(oid)
        except LookupError:
            state["unavailable_reads"] += 1
            OBS.bus.emit("read.unavailable", t=now, oid=oid)
            return
        if degraded:
            state["degraded_reads"] += 1
            OBS.bus.emit("read.degraded", t=now, oid=oid)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def submit_recovery(work: CrashRecoveryWork, now: float) -> None:
        key = f"recovery:r{work.rank}v{work.version}"

        def plan_fn() -> Optional[PlannedTransfer]:
            return PlannedTransfer.of(
                cluster.crash_recovery_outlook(work),
                lambda: cluster.commit_crash_recovery(work, strict=False))

        manager.submit(TransferJob(key=key, kind="recovery",
                                   plan_fn=plan_fn), now=now)

    def maybe_submit_reintegration(now: float) -> bool:
        if any(job.kind == "reintegration"
               and job.status in ("pending", "active")
               for job in manager.jobs):
            return False
        if state["reint_round"] >= _MAX_REINTEGRATION_ROUNDS:
            return False
        outlook = cluster.plan_selective_reintegration()
        if outlook.actionable == 0:
            return False
        if outlook.total_bytes == 0 and not cluster.ech.is_full_power:
            # Nothing to move, and below full power Algorithm 2 may not
            # clear entries (lines 11-13): a round would be pure churn.
            # The entries wait for the repair/repower round.
            return False
        state["reint_round"] += 1
        key = f"reintegration:{state['reint_round']}"

        def plan_fn() -> Optional[PlannedTransfer]:
            p = cluster.plan_selective_reintegration()
            if p.actionable == 0:
                return None
            return PlannedTransfer.of(
                p, lambda: cluster.commit_selective_reintegration(p))

        manager.submit(TransferJob(key=key, kind="reintegration",
                                   plan_fn=plan_fn,
                                   rate_cap=REINTEGRATION_RATE), now=now)
        return True

    def on_transfer_start(job: TransferJob, now: float) -> None:
        if job.kind in ("recovery", "reintegration"):
            injector.fire_trigger(job.kind, now)

    manager.on_start = on_transfer_start

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def attempt_repair(rank: int) -> None:
        if cluster.inflight_ranks.get(rank, 0):
            # A transfer still pins the rank (repair_server would
            # refuse): drain first, try again next tick.
            sim.schedule(dt, attempt_repair, rank)
            return
        cluster.repair_server(rank)
        dirty_store.repair_node(rank)   # re-replicates its kv shard
        state["crashed"].discard(rank)
        target = min(state["desired"], n - len(state["crashed"]))
        if target != cluster.num_active:
            cluster.resize(target)
        load.refresh()
        maybe_submit_reintegration(sim.now)

    def handle_fault(action: FaultAction) -> None:
        now = sim.now
        if action.kind == "crash":
            rank = action.rank
            if rank in state["crashed"]:
                return
            manager.on_crash(rank)
            dirty_store.crash_node(rank)   # its kv shard dies with it
            work = cluster.crash_server(rank)
            state["crashed"].add(rank)
            load.refresh()
            if work.lost:
                submit_recovery(work, now)
            else:
                cluster.commit_crash_recovery(work, strict=False)
        elif action.kind == "repair":
            attempt_repair(action.rank)
        elif action.kind == "link_loss.start":
            manager.on_link_loss((action.rank, action.peer))
        # slow_disk.* and link_loss.end are ambient: capacities() and
        # the launch-time link check pick them up.

    injector.arm(sim, handle_fault)

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    def emit_audit(now: float, label: str = "periodic") -> None:
        audit = cluster.replication_audit()
        rec: Dict[str, object] = {
            "t": now, "label": label, **audit,
            "dirty": len(cluster.ech.dirty),
            "active_transfers": len(manager.active),
            "quarantined": len(manager.quarantined),
        }
        audits.append(rec)
        if OBS.bus.active:
            OBS.bus.clock = now
            OBS.bus.emit("chaos.audit", t=now, label=label,
                         objects=audit["objects"], lost=audit["lost"],
                         under_replicated=audit["under_replicated"],
                         dirty=rec["dirty"],
                         quarantined=rec["quarantined"])
        # The metadata substrate gets the same scrutiny as the data
        # plane: its audit feeds the kv-* checkers (emits kv.audit).
        rec["kv"] = dirty_store.audit(label)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    now = 0.0
    next_audit = audit_every
    with checked_run("chaos.run", check, seed=seed, n=n,
                     faults=len(plan)) as checked:
        load.start()
        while now < MAX_DURATION:
            now += dt
            sim.run_until(now)          # fault actions interleave here
            manager.poll(now)
            io.step(now)
            load.materialise_writes()
            sample_read(now)
            if now >= next_audit:
                emit_audit(now)
                next_audit += audit_every
            if not load.phase_done:
                continue
            idx = load.finish_phase(now)
            if idx == 0:
                state["desired"] = n - off_count
                cluster.resize(min(state["desired"],
                                   n - len(state["crashed"])))
            elif idx == 1:
                state["desired"] = n
                cluster.resize(n - len(state["crashed"]))
                maybe_submit_reintegration(now)
            if not load.advance():
                break
            injector.fire_trigger(phases[load.index].name, now)

        # Drain: faults may still be scheduled (a delayed repair), and
        # preempted transfers retry until done or quarantined.
        while (now < MAX_DURATION
               and (len(io.flows) > 0 or not manager.idle
                    or sim.pending > 0)):
            now += dt
            sim.run_until(now)
            manager.poll(now)
            io.step(now)
            if now >= next_audit:
                emit_audit(now)
                next_audit += audit_every
            if manager.idle and len(io.flows) == 0:
                maybe_submit_reintegration(now)

        dirty_store.anti_entropy()     # settle any repair debt left
        emit_audit(now, label="final")

    # A quarantined re-integration round can be *superseded*: a later
    # round settles the same dirty entries (each plan re-snapshots the
    # table).  Only objects still dirty or short of r copies at the end
    # are genuinely degraded.
    throughput = io.series("client")[1]
    degraded = [oid for oid in manager.degraded_objects()
                if cluster.ech.dirty.contains_oid(oid)
                or len(cluster.stored_locations(oid)) < replicas]

    return ChaosResult(
        seed=plan.seed,
        n=n,
        replicas=replicas,
        scale=scale,
        duration=now,
        phase_ends=dict(load.phase_ends),
        faults=[{"t": t, "kind": a.kind, "rank": a.rank,
                 "peer": a.peer, "factor": a.factor}
                for t, a in injector.applied],
        transfers=manager.stats(),
        wasted_bytes=dict(cluster.wasted_bytes),
        lost_objects=list(cluster.lost_objects),
        degraded_objects=degraded,
        degraded_reads=state["degraded_reads"],
        unavailable_reads=state["unavailable_reads"],
        audits=audits,
        final_audit=audits[-1] if audits else {},
        dirty_backlog=len(cluster.ech.dirty),
        violations=checked.violations,
        checkers=checked.checkers,
        events_seen=checked.events_seen,
        peak_throughput=max(throughput) if throughput else 0.0,
        mean_throughput=(sum(throughput) / len(throughput)
                         if throughput else 0.0),
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render_chaos_report(result: ChaosResult) -> str:
    """The run as a markdown chaos report."""
    lines: List[str] = [
        "# chaos report",
        "",
        f"- seed: {result.seed}",
        f"- cluster: n={result.n}, r={result.replicas}, "
        f"scale={result.scale}",
        f"- duration: {result.duration:.0f} s; phase ends: "
        + (", ".join(f"{k}={v:.0f}s"
                     for k, v in result.phase_ends.items()) or "none"),
        f"- client throughput: peak "
        f"{result.peak_throughput / 1e6:.1f} MB/s, mean "
        f"{result.mean_throughput / 1e6:.1f} MB/s",
        "",
        *render_fault_timeline(result.faults),
        "",
        "## transfers",
        "",
        "| submitted | completed | retries | interrupted | quarantined |",
        "| --- | --- | --- | --- | --- |",
        f"| {result.transfers.get('submitted', 0)} "
        f"| {result.transfers.get('completed', 0)} "
        f"| {result.transfers.get('retries', 0)} "
        f"| {result.transfers.get('interrupted', 0)} "
        f"| {result.transfers.get('quarantined', 0)} |",
        "",
        "wasted (preempted) bytes: "
        + (", ".join(f"{k}: {v / 1e6:.1f} MB"
                     for k, v in sorted(result.wasted_bytes.items()))
           or "none"),
        "",
        "## replication audits",
        "",
        "| t(s) | objects | lost | under-replicated | dirty | quarantined |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    lines += render_audit_rows(
        result.audits, "| {t:.0f} | {objects} | {lost} "
        "| {under_replicated} | {dirty} | {quarantined} |")
    lines += ["", *render_invariants(result)]
    verdict = "OK" if result.ok else "DEGRADED"
    lines += [
        "",
        "## outcome",
        "",
        f"- verdict: **{verdict}**",
        f"- lost objects: {len(result.lost_objects)}",
        f"- quarantined (degraded) objects: "
        f"{len(result.degraded_objects)}",
        f"- degraded reads served via fallback: {result.degraded_reads} "
        f"(unavailable: {result.unavailable_reads})",
        f"- dirty backlog at end: {result.dirty_backlog}",
        f"- final audit: lost={result.final_audit.get('lost', '?')}, "
        f"under_replicated="
        f"{result.final_audit.get('under_replicated', '?')}",
    ]
    return "\n".join(lines)
