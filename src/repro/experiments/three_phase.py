"""Figures 3 and 7: throughput under resizing with the 3-phase workload.

The testbed experiment (§V-A): a 10-server cluster, 2-way replication,
4 MB objects, driven by the 3-phase Filebench workload.  In the
resizing cases, 4 servers are turned down at the end of phase 1 and
turned back on at the end of phase 2; the figures plot achieved client
throughput over time.

Four modes reproduce the paper's curves:

========== ===========================================================
mode        behaviour
========== ===========================================================
none        no resizing (the "no resizing" baseline of both figures)
original    original CH: departure re-replication after phase 1,
            full migration onto re-added (empty) servers after phase 2
            — uncontrolled, fighting the phase-3 foreground (Fig 3/7)
full        elastic CH, instant resize, *full* re-integration after
            phase 2 (over-migrates everything on re-added servers)
selective   elastic CH, instant resize, selective re-integration of
            dirty data only, rate-limited (the paper's system, Fig 7)
========== ===========================================================

The IO substrate is the fluid fair-share model: client and background
flows compete for per-server disk bandwidth; the throughput dip after
phase 2 is therefore *measured contention*, with the migration volumes
taken from the real object-level cluster state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Tuple

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.migration import addition_migration_plan
from repro.cluster.recovery import plan_departure_recovery
from repro.cluster.runtime import (CLIENT_CAP, DISK_BW, DT, MAX_DURATION,
                                   OBJECT_SIZE, PHASE2_RATE, PROBE_OBJECTS,
                                   REINTEGRATION_RATE, REPLICAS,
                                   ClusterRuntime, ThreePhaseLoad)
from repro.simulation.flows import FluidFlow
from repro.workloads.three_phase import PHASE_NAMES, three_phase_workload

__all__ = ["ThreePhaseResult", "run_three_phase"]

Mode = Literal["none", "original", "full", "selective"]


@dataclass
class ThreePhaseResult:
    """Timeline and accounting for one 3-phase run."""

    mode: str
    times: List[float]
    throughput: List[float]            # client bytes/s per tick
    migration_rate: List[float]        # background bytes/s per tick
    phase_ends: Dict[str, float]       # name -> completion time
    migrated_bytes: float
    rereplicated_bytes: float
    duration: float

    @property
    def unfinished(self) -> Tuple[str, ...]:
        """Phases that had not completed when the run stopped at
        ``max_duration``, in order (empty: the run finished)."""
        return tuple(p for p in PHASE_NAMES if p not in self.phase_ends)

    @property
    def finished(self) -> bool:
        return not self.unfinished

    def mean_throughput(self, t0: float, t1: float) -> float:
        vals = [v for t, v in zip(self.times, self.throughput)
                if t0 <= t < t1]
        return sum(vals) / len(vals) if vals else 0.0

    def recovery_time_after(self, t_event: float,
                            threshold_frac: float = 0.9) -> float:
        """Seconds after *t_event* until client throughput first
        sustains *threshold_frac* of the run's peak — the "delayed IO
        throughput" measure discussed under Figure 7."""
        peak = max(self.throughput) if self.throughput else 0.0
        target = peak * threshold_frac
        for t, v in zip(self.times, self.throughput):
            if t >= t_event and v >= target:
                return t - t_event
        return self.duration - t_event


def run_three_phase(
    mode: Mode = "selective",
    n: int = 10,
    scale: float = 1.0,
    off_count: int = 4,
    disk_bw: float = DISK_BW,
    client_cap: float = CLIENT_CAP,
    object_size: int = OBJECT_SIZE,
    selective_rate_limit: float = REINTEGRATION_RATE,
    phase2_rate: float = PHASE2_RATE,
    max_duration: float = MAX_DURATION,
    probe_objects: int = PROBE_OBJECTS,
    isolate_reintegration: bool = True,
) -> ThreePhaseResult:
    """Run one 3-phase experiment and return its timeline.

    *scale* shrinks the workload byte totals (tests use 0.02-0.05;
    the benches use the paper's full sizes).  A run whose phases have
    not drained after *max_duration* simulated seconds stops there:
    check :attr:`ThreePhaseResult.finished` before reading a phase end.
    The testbed values nobody varies (2 replicas, 1 s ticks) and the
    defaults of the ones the benches do are declared in
    :mod:`repro.cluster.runtime`.

    *isolate_reintegration* reproduces the §V-A setup exactly: "Note
    that primary server and data layout are not considered here
    because they do not have an effect on the performance" — the
    elastic modes then run uniform weights and plain successor
    placement, so all four curves share the same peak throughput and
    differ only in re-integration behaviour.  Set it False to run the
    full equal-work + primary design instead (its lower write peak is
    the §III-C trade-off; only the tests run it).
    """
    if mode not in ("none", "original", "full", "selective"):
        raise ValueError(f"unknown mode: {mode!r}")
    phases = three_phase_workload(scale=scale, phase2_rate=phase2_rate)

    elastic_mode = mode != "original"
    if not elastic_mode:
        cluster: object = OriginalCHCluster(n, REPLICAS,
                                            vnodes_per_server=1_000,
                                            disk_bandwidth=disk_bw)
    elif isolate_reintegration:
        cluster = ElasticCluster(n, REPLICAS, disk_bandwidth=disk_bw,
                                 layout_mode="uniform",
                                 placement_mode="original")
    else:
        cluster = ElasticCluster(n, REPLICAS, disk_bandwidth=disk_bw)

    # No Simulator: nothing here is event-driven, and ``run_until``
    # would add an ``engine.clock`` event per tick to the trace.
    rt = ClusterRuntime(cluster, DT)
    io = rt.io
    load = ThreePhaseLoad(rt, phases, client_cap, object_size,
                          probe_objects)

    # Original-CH departures run one at a time, each gated on its
    # re-replication flow (Figure 2's lag).
    removal = {"queue": [], "flow": None}

    # ------------------------------------------------------------------
    # resize actions at phase boundaries
    # ------------------------------------------------------------------
    def migration_coefficients(per_dest: Dict[int, float]) -> Dict[int, float]:
        """A migrated byte is written once at its destination and read
        once somewhere; spread the read side evenly over active
        servers."""
        total = sum(per_dest.values())
        coeffs = rt.even_coefficients()
        if total > 0:
            for rank, b in per_dest.items():
                coeffs[rank] = coeffs.get(rank, 0.0) + b / total
        return coeffs

    def resize_down() -> None:
        if elastic_mode:
            cluster.resize(n - off_count)       # instant
        else:
            removal["queue"] = cluster.active_ranks()[-off_count:][::-1]
            start_next_removal()

    def start_next_removal() -> None:
        if removal["flow"] is not None or not removal["queue"]:
            return
        victim = removal["queue"][0]
        plan = plan_departure_recovery(cluster, victim)

        def finish(_flow: FluidFlow) -> None:
            cluster.remove_server(victim)
            removal["queue"].pop(0)
            removal["flow"] = None
            load.refresh()
            start_next_removal()

        removal["flow"] = io.flows.add(FluidFlow(
            name="recovery",
            coefficients=migration_coefficients(plan.bytes_per_destination()),
            total_bytes=float(max(plan.total_bytes, 1)),
            on_complete=finish,
        ))

    def resize_up() -> None:
        if elastic_mode:
            cluster.resize(n)
            if mode == "selective":
                rt.reintegrate_selective(selective_rate_limit)
            else:
                # Grab the resize.cycle span before the (logically
                # instant) pass closes it, so the byte-moving flow is
                # parented to its cycle.
                cycle = cluster.reintegration_cycle
                rt.add_reintegration_flow(cluster.run_full_reintegration(),
                                          parent=cycle)
            return
        # Baseline: any departures still pending are abandoned, the
        # servers rejoin empty and consistent hashing pulls their
        # share of data back — uncontrolled.
        removal["queue"] = []
        if removal["flow"] is not None:
            removal["flow"].total_bytes = removal[
                "flow"].progressed  # retire at next tick
            removal["flow"] = None
        off = [r for r in cluster.servers if r not in cluster.members]
        moved = 0
        per_dest: Dict[int, float] = {}
        if off:
            per_dest = addition_migration_plan(
                cluster, off).bytes_per_destination()
            for rank in off:
                moved += cluster.add_server(rank)
        rt.add_reintegration_flow(
            moved, coefficients=migration_coefficients(per_dest))

    # Main loop ---------------------------------------------------------
    now = 0.0
    load.start()
    while now < max_duration:
        now += DT
        io.step(now)
        load.materialise_writes()
        if not load.phase_done:
            continue
        idx = load.finish_phase(now)
        if mode != "none":
            if idx == 0:
                resize_down()
            elif idx == 1:
                resize_up()
        if not load.advance():
            # Drain background flows (a rate-limited migration can
            # outlive phase 3) so migration durations are measured
            # to completion, then stop.
            while len(io.flows) > 0 and now < max_duration:
                now += DT
                io.step(now)
            break

    times, thr = io.series("client")
    mig = [achieved.get("migration", 0.0) + achieved.get("recovery", 0.0)
           for _, achieved in io.samples]
    if elastic_mode:
        migrated, rereplicated = sum(cluster.migrated_bytes.values()), 0
    else:
        migrated, rereplicated = (cluster.migrated_bytes,
                                  cluster.rereplicated_bytes)
    return ThreePhaseResult(
        mode=mode,
        times=times,
        throughput=thr,
        migration_rate=mig,
        phase_ends=dict(load.phase_ends),
        migrated_bytes=float(migrated),
        rereplicated_bytes=float(rereplicated),
        duration=now,
    )
