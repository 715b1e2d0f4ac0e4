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
from repro.cluster.runtime import DISK_BW, OBJECT_SIZE, REPLICAS
from repro.metrics.timeline import StepSeries
from repro.simulation.engine import Simulator

__all__ = ["ResizeAgilityResult", "run_resize_agility"]

# The §II-C request pattern on the 10-node testbed: 2 servers every
# 30 s over a 300 s run, the baseline's re-replication allowed half of
# the active disk bandwidth, its ring 200 vnodes per server.
N = 10
BATCH = 2
STEP_INTERVAL = 30.0
DURATION = 300.0
RECOVERY_FRACTION = 0.5
VNODES_PER_SERVER = 200


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


def run_resize_agility(objects: int = 2_000) -> ResizeAgilityResult:
    """Run the Figure 2 experiment.

    As in §II-C: remove :data:`BATCH` servers every :data:`STEP_INTERVAL`
    seconds until only the minimum remain, then add them back at the
    same cadence from the midpoint.  *objects* × ``OBJECT_SIZE`` is the
    resident dataset whose re-replication gates the baseline's shrink:
    with no data the baseline has nothing to re-replicate and the
    figure is vacuous, so *objects* must be >= 1.
    """
    if objects < 1:
        raise ValueError(f"objects must be >= 1 (got {objects}): an empty "
                         f"dataset gates no departure")
    # ---------------- ideal (requested) pattern ----------------------
    ideal = StepSeries()
    ideal.append(0.0, N)
    k = N
    t = STEP_INTERVAL
    floor = REPLICAS  # the request bottoms out where replication allows
    while k > floor and t < DURATION / 2:
        k = max(floor, k - BATCH)
        ideal.append(t, k)
        t += STEP_INTERVAL
    t = DURATION / 2 + STEP_INTERVAL
    while k < N:
        k = min(N, k + BATCH)
        ideal.append(t, k)
        t += STEP_INTERVAL

    # ---------------- original consistent hashing --------------------
    baseline = OriginalCHCluster(N, REPLICAS,
                                 vnodes_per_server=VNODES_PER_SERVER,
                                 disk_bandwidth=DISK_BW)
    baseline.write_many(range(objects), OBJECT_SIZE)

    original = StepSeries()
    original.append(0.0, N)
    recovery_bytes: List[int] = []

    sim = Simulator()
    state = {"pending_remove": 0, "busy": False, "members": N,
             "removal_event": None}

    def request_remove() -> None:
        state["pending_remove"] += BATCH
        maybe_start_removal()

    def maybe_start_removal() -> None:
        if state["busy"] or state["pending_remove"] <= 0:
            return
        if state["members"] - 1 < REPLICAS:
            state["pending_remove"] = 0
            return
        victim = max(baseline.members)
        plan = baseline.plan_departure(victim)
        delay = plan.serialized_seconds(DISK_BW, RECOVERY_FRACTION)
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
        while added < BATCH and state["members"] < N:
            while rank in baseline.members:
                rank += 1
            baseline.add_server(rank)
            state["members"] += 1
            added += 1
        original.append(sim.now, state["members"])

    t = STEP_INTERVAL
    while t < DURATION / 2:
        sim.schedule_at(t, request_remove)
        t += STEP_INTERVAL
    t = DURATION / 2 + STEP_INTERVAL
    while t <= DURATION:
        sim.schedule_at(t, request_add)
        t += STEP_INTERVAL
    sim.run_until(DURATION)

    # ---------------- elastic consistent hashing ---------------------
    elastic_cluster = ElasticCluster(N, REPLICAS, disk_bandwidth=DISK_BW)
    elastic_cluster.write_many(range(objects), OBJECT_SIZE)

    elastic = StepSeries()
    elastic.append(0.0, N)
    k = N
    t = STEP_INTERVAL
    while k > elastic_cluster.min_active and t < DURATION / 2:
        k = max(elastic_cluster.min_active, k - BATCH)
        elastic_cluster.resize(k)   # instant: no clean-up work
        elastic.append(t, elastic_cluster.num_active)
        t += STEP_INTERVAL
    t = DURATION / 2 + STEP_INTERVAL
    while k < N:
        k = min(N, k + BATCH)
        elastic_cluster.resize(k)
        elastic.append(t, elastic_cluster.num_active)
        t += STEP_INTERVAL

    return ResizeAgilityResult(
        ideal=ideal,
        original_ch=original,
        elastic=elastic,
        duration=DURATION,
        recovery_bytes=recovery_bytes,
    )
