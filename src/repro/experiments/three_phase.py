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

import itertools
from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.migration import addition_migration_plan
from repro.cluster.recovery import plan_departure_recovery
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import (
    IOModel,
    client_coefficients,
    replica_load_fractions_from_matrix,
)
from repro.workloads.three_phase import Phase, three_phase_workload

__all__ = ["ThreePhaseResult", "run_three_phase"]

Mode = Literal["none", "original", "full", "selective"]

MB = 10 ** 6


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
    replicas: int = 2,
    scale: float = 1.0,
    off_count: int = 4,
    disk_bw: float = 64e6,
    client_cap: float = 320e6,
    object_size: int = 4 * 1024 * 1024,
    selective_rate_limit: float = 50e6,
    phase2_rate: float = 20e6,
    dt: float = 1.0,
    max_duration: float = 3_600.0,
    probe_objects: int = 2_000,
    isolate_reintegration: bool = True,
) -> ThreePhaseResult:
    """Run one 3-phase experiment and return its timeline.

    *scale* shrinks the workload byte totals (tests use 0.02-0.05;
    the benches use the paper's full sizes).

    *isolate_reintegration* reproduces the §V-A setup exactly: "Note
    that primary server and data layout are not considered here
    because they do not have an effect on the performance" — the
    elastic modes then run uniform weights and plain successor
    placement, so all four curves share the same peak throughput and
    differ only in re-integration behaviour.  Set it False to run the
    full equal-work + primary design instead (its lower write peak is
    the §III-C trade-off, exercised by the ablation bench).
    """
    if mode not in ("none", "original", "full", "selective"):
        raise ValueError(f"unknown mode: {mode!r}")
    phases = three_phase_workload(scale=scale, phase2_rate=phase2_rate)

    elastic_mode = mode in ("none", "full", "selective")
    if elastic_mode:
        if isolate_reintegration:
            cluster: object = ElasticCluster(
                n, replicas, disk_bandwidth=disk_bw,
                layout_mode="uniform", placement_mode="original")
        else:
            cluster = ElasticCluster(n, replicas, disk_bandwidth=disk_bw)
    else:
        cluster = OriginalCHCluster(n, replicas, vnodes_per_server=1_000,
                                    disk_bandwidth=disk_bw)

    oid_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # membership-dependent state
    # ------------------------------------------------------------------
    def active_ranks() -> List[int]:
        if elastic_mode:
            table = cluster.ech.membership
            return [r for r in cluster.servers if table.is_active(r)]
        return list(cluster.members)

    def capacities() -> Dict[int, float]:
        return {r: disk_bw for r in active_ranks()}

    frac_cache: Dict[Tuple[int, ...], Dict[int, float]] = {}

    def fractions() -> Dict[int, float]:
        key = tuple(sorted(active_ranks()))
        if key not in frac_cache:
            probe = range(10_000_000, 10_000_000 + probe_objects)
            if elastic_mode:
                matrix = cluster.ech.locate_bulk(probe).servers
            else:
                matrix = cluster.placement_bulk(probe).servers
            frac_cache[key] = replica_load_fractions_from_matrix(matrix)
        return frac_cache[key]

    if elastic_mode:
        # Capacities depend only on the membership table, and every
        # membership transition bumps the placement version — a cheap
        # token that lets unchanged ticks reuse the last allocation.
        io = IOModel(capacities, dt=dt,
                     capacity_token=lambda: cluster.ech.current_version)
    else:
        # Original-CH membership has no version counter; the dict-
        # compare fallback is plenty at these cluster sizes.
        io = IOModel(capacities, dt=dt)

    # ------------------------------------------------------------------
    # client phases
    # ------------------------------------------------------------------
    state = {
        "phase_idx": 0,
        "client": None,            # live client flow
        "write_carry": 0.0,        # fractional object accumulator
        "phase_ends": {},
        "pending_actions": [],     # resize work queued at phase ends
        "removal_queue": [],       # original-CH sequential departures
        "removal_flow": None,
        "rereplicated": 0.0,
    }

    def start_phase(idx: int) -> None:
        phase = phases[idx]
        coeffs = client_coefficients(fractions(), replicas,
                                     phase.write_ratio)
        cap = min(client_cap, phase.rate_cap or client_cap)
        flow = FluidFlow(
            name="client",
            coefficients=coeffs,
            total_bytes=phase.total_bytes,
            rate_cap=cap,
        )
        state["client"] = io.flows.add(flow)

    def refresh_client_coefficients() -> None:
        """Re-point the live client flow at the current membership."""
        flow = state["client"]
        if flow is not None and not flow.done:
            phase = phases[state["phase_idx"]]
            flow.coefficients = client_coefficients(
                fractions(), replicas, phase.write_ratio)

    # ------------------------------------------------------------------
    # resize actions at phase boundaries
    # ------------------------------------------------------------------
    def migration_coefficients(per_dest: Dict[int, float]) -> Dict[int, float]:
        """A migrated byte is written once at its destination and read
        once somewhere; spread the read side evenly over active
        servers."""
        total = sum(per_dest.values())
        active = active_ranks()
        coeffs: Dict[int, float] = {r: 1.0 / len(active) for r in active}
        if total > 0:
            for rank, b in per_dest.items():
                coeffs[rank] = coeffs.get(rank, 0.0) + b / total
        return coeffs

    def resize_down(now: float) -> None:
        if elastic_mode:
            cluster.resize(n - off_count)       # instant
            refresh_client_coefficients()
        else:
            state["removal_queue"] = sorted(cluster.members)[-off_count:][::-1]
            start_next_removal(now)

    def start_next_removal(now: float) -> None:
        if state["removal_flow"] is not None or not state["removal_queue"]:
            return
        victim = state["removal_queue"][0]
        plan = plan_departure_recovery(cluster, victim)

        def finish(_flow: FluidFlow) -> None:
            moved = cluster.remove_server(victim)
            state["rereplicated"] += moved
            state["removal_queue"].pop(0)
            state["removal_flow"] = None
            refresh_client_coefficients()
            start_next_removal(io.samples[-1][0] if io.samples else now)

        flow = FluidFlow(
            name="recovery",
            coefficients=migration_coefficients(plan.bytes_per_destination()),
            total_bytes=float(max(plan.total_bytes, 1)),
            on_complete=finish,
        )
        state["removal_flow"] = io.flows.add(flow)

    def resize_up(now: float) -> None:
        if elastic_mode:
            cluster.resize(n)
            refresh_client_coefficients()
            # The resize may open a resize.cycle span; grab it before
            # the (logically instant) re-integration pass closes it so
            # the byte-moving flow below is parented to its cycle.
            cycle = cluster.reintegration_cycle
            if mode == "selective":
                backlog = cluster.selective_backlog_bytes()
                report = cluster.run_selective_reintegration()
                volume = max(report.bytes_migrated, backlog)
                if volume > 0:
                    io.flows.add(FluidFlow(
                        name="migration",
                        coefficients=migration_coefficients({}),
                        total_bytes=float(volume),
                        rate_cap=selective_rate_limit,
                    ), parent=cycle)
            elif mode == "full":
                moved = cluster.run_full_reintegration()
                if moved > 0:
                    io.flows.add(FluidFlow(
                        name="migration",
                        coefficients=migration_coefficients({}),
                        total_bytes=float(moved),
                    ), parent=cycle)
        else:
            # Baseline: any departures still pending are abandoned, the
            # servers rejoin empty and consistent hashing pulls their
            # share of data back — uncontrolled.
            state["removal_queue"] = []
            if state["removal_flow"] is not None:
                state["removal_flow"].total_bytes = state[
                    "removal_flow"].progressed  # retire at next tick
                state["removal_flow"] = None
            off = [r for r in cluster.servers if r not in cluster.ring]
            moved = 0
            per_dest: Dict[int, float] = {}
            if off:
                plan = addition_migration_plan(cluster, off)
                per_dest = plan.bytes_per_destination()
                for rank in off:
                    moved += cluster.add_server(rank)
            refresh_client_coefficients()
            if moved > 0:
                io.flows.add(FluidFlow(
                    name="migration",
                    coefficients=migration_coefficients(per_dest),
                    total_bytes=float(moved),
                ))

    # ------------------------------------------------------------------
    # per-tick bookkeeping
    # ------------------------------------------------------------------
    def materialise_writes(now: float) -> None:
        """Turn the client flow's written bytes into placed objects so
        migration volumes and dirty tracking reflect real state."""
        flow = state["client"]
        if flow is None:
            return
        phase = phases[state["phase_idx"]]
        written = flow.last_rate * dt * phase.write_ratio
        state["write_carry"] += written
        while state["write_carry"] >= object_size:
            cluster.write(next(oid_counter), object_size)
            state["write_carry"] -= object_size

    # Main loop ---------------------------------------------------------
    times: List[float] = []
    thr: List[float] = []
    mig: List[float] = []

    start_phase(0)
    now = 0.0
    while now < max_duration:
        now += dt
        achieved = io.step(now)
        times.append(now)
        thr.append(achieved.get("client", 0.0))
        mig.append(achieved.get("migration", 0.0)
                   + achieved.get("recovery", 0.0))
        materialise_writes(now)

        flow = state["client"]
        if flow is not None and flow.done:
            idx = state["phase_idx"]
            state["phase_ends"][phases[idx].name] = now
            state["client"] = None
            state["write_carry"] = 0.0
            if mode != "none":
                if idx == 0:
                    resize_down(now)
                elif idx == 1:
                    resize_up(now)
            if idx + 1 < len(phases):
                state["phase_idx"] = idx + 1
                start_phase(idx + 1)
            else:
                # Drain background flows (a rate-limited migration can
                # outlive phase 3) so migration durations are measured
                # to completion, then stop.
                while len(io.flows) > 0 and now < max_duration:
                    now += dt
                    achieved = io.step(now)
                    times.append(now)
                    thr.append(achieved.get("client", 0.0))
                    mig.append(achieved.get("migration", 0.0)
                               + achieved.get("recovery", 0.0))
                break

    if elastic_mode:
        migrated = sum(cluster.migrated_bytes.values())
    else:
        migrated = cluster.migrated_bytes
    return ThreePhaseResult(
        mode=mode,
        times=times,
        throughput=thr,
        migration_rate=mig,
        phase_ends=dict(state["phase_ends"]),
        migrated_bytes=float(migrated),
        rereplicated_bytes=float(state["rereplicated"]),
        duration=now,
    )
