"""Figure 2: resizing agility of original CH vs the elastic design.

The paper's §II-C experiment on the 10-node Sheepdog testbed: starting
at 10 active servers, *request* the removal of 2 servers every 30
seconds for two minutes, then from minute 3 add 2 back every 30 seconds.
The "ideal" line is the requested pattern; original consistent hashing
lags it when sizing down because each departure must finish
re-replicating before the next can proceed, and catches up when sizing
up.  The elastic design (primary servers + layout) resizes instantly in
both directions, floored at the primary count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.recovery import plan_departure_recovery
from repro.metrics.timeline import StepSeries
from repro.simulation.engine import Simulator

__all__ = ["ResizeAgilityResult", "run_resize_agility"]


@dataclass
class ResizeAgilityResult:
    """The three active-server series of Figure 2 (+ the elastic one)."""

    ideal: StepSeries
    original_ch: StepSeries
    elastic: StepSeries
    duration: float
    #: Per-removal re-replication volumes the baseline paid (bytes).
    recovery_bytes: List[int] = field(default_factory=list)

    def lag_seconds(self) -> float:
        """∫(original - ideal) dt over the shrink half — the area by
        which the baseline lags the requested pattern (server-seconds).
        Positive = lagging."""
        half = self.duration / 2.0
        return (self.original_ch.integral(0, half)
                - self.ideal.integral(0, half))

    def elastic_lag_seconds(self) -> float:
        half = self.duration / 2.0
        return self.elastic.integral(0, half) - self.ideal.integral(0, half)


def run_resize_agility(
    n: int = 10,
    replicas: int = 2,
    objects: int = 2_000,
    object_size: int = 4 * 1024 * 1024,
    step_interval: float = 30.0,
    batch: int = 2,
    disk_bw: float = 64e6,
    recovery_fraction: float = 0.5,
    duration: float = 300.0,
    vnodes_per_server: int = 200,
) -> ResizeAgilityResult:
    """Run the Figure 2 experiment.

    Parameters mirror §II-C: remove *batch* servers every
    *step_interval* seconds until only the minimum remain, then add
    them back at the same cadence from the midpoint.  *objects* ×
    *object_size* is the resident dataset whose re-replication gates
    the baseline's shrink: with no data the baseline has nothing to
    re-replicate and the figure is vacuous, so *objects* must be >= 1.
    """
    if objects < 1:
        raise ValueError(f"objects must be >= 1 (got {objects}): an empty "
                         f"dataset gates no departure")
    # ---------------- ideal (requested) pattern ----------------------
    ideal = StepSeries()
    ideal.append(0.0, n)
    k = n
    t = step_interval
    floor = replicas  # the request bottoms out where replication allows
    while k > floor and t < duration / 2:
        k = max(floor, k - batch)
        ideal.append(t, k)
        t += step_interval
    t = duration / 2 + step_interval
    while k < n:
        k = min(n, k + batch)
        ideal.append(t, k)
        t += step_interval

    # ---------------- original consistent hashing --------------------
    baseline = OriginalCHCluster(n, replicas,
                                 vnodes_per_server=vnodes_per_server,
                                 disk_bandwidth=disk_bw)
    baseline.write_many(range(objects), object_size)

    original = StepSeries()
    original.append(0.0, n)
    recovery_bytes: List[int] = []

    sim = Simulator()
    state = {"pending_remove": 0, "busy": False, "members": n,
             "removal_event": None}

    def request_remove() -> None:
        state["pending_remove"] += batch
        maybe_start_removal()

    def maybe_start_removal() -> None:
        if state["busy"] or state["pending_remove"] <= 0:
            return
        if state["members"] - 1 < replicas:
            state["pending_remove"] = 0
            return
        victim = max(baseline.members)
        plan = plan_departure_recovery(baseline, victim)
        delay = plan.serialized_seconds(disk_bw, recovery_fraction)
        state["busy"] = True

        def finish() -> None:
            moved = baseline.remove_server(victim)
            recovery_bytes.append(moved)
            state["members"] -= 1
            state["pending_remove"] -= 1
            state["busy"] = False
            state["removal_event"] = None
            original.append(sim.now, state["members"])
            maybe_start_removal()

        state["removal_event"] = sim.schedule(max(delay, 1e-6), finish)

    def request_add() -> None:
        # Adding needs no prerequisite work (§II-C: migration is not a
        # pre-requisite operation for adding servers); any outstanding
        # shrink requests — including a removal mid-recovery — are
        # superseded.
        state["pending_remove"] = 0
        if state["removal_event"] is not None:
            state["removal_event"].cancel()
            state["removal_event"] = None
            state["busy"] = False
        added = 0
        rank = 1
        while added < batch and state["members"] < n:
            while rank in baseline.members:
                rank += 1
            baseline.add_server(rank)
            state["members"] += 1
            added += 1
        original.append(sim.now, state["members"])

    t = step_interval
    while t < duration / 2:
        sim.schedule_at(t, request_remove)
        t += step_interval
    t = duration / 2 + step_interval
    while t <= duration:
        sim.schedule_at(t, request_add)
        t += step_interval
    sim.run_until(duration)

    # ---------------- elastic consistent hashing ---------------------
    elastic_cluster = ElasticCluster(n, replicas, disk_bandwidth=disk_bw)
    elastic_cluster.write_many(range(objects), object_size)

    elastic = StepSeries()
    elastic.append(0.0, n)
    k = n
    t = step_interval
    while k > elastic_cluster.min_active and t < duration / 2:
        k = max(elastic_cluster.min_active, k - batch)
        elastic_cluster.resize(k)   # instant: no clean-up work
        elastic.append(t, elastic_cluster.num_active)
        t += step_interval
    t = duration / 2 + step_interval
    while k < n:
        k = min(n, k + batch)
        elastic_cluster.resize(k)
        elastic.append(t, elastic_cluster.num_active)
        t += step_interval

    return ResizeAgilityResult(
        ideal=ideal,
        original_ch=original,
        elastic=elastic,
        duration=duration,
        recovery_bytes=recovery_bytes,
    )
