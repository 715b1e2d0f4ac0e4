"""Object-level trace replay — cross-validating the fluid model.

The §V-B analysis (:mod:`repro.policy.resizer`) is a *fluid* model:
migration volumes are estimated from layout shares and dataset sizes.
This module replays a trace window against the **real** cluster
machinery — actual objects, actual placements, actual dirty entries,
actual re-integration byte counts — applying the same operational
rules (instant elastic resize, serialized baseline removals, migration
debt occupying disk bandwidth).  If the fluid model is honest, both
levels must tell the same story: same policy ordering, comparable
relative machine hours.

Replay is orders of magnitude more expensive than the fluid model
(every write is a placement), so it runs on short windows; the
validation bench replays a couple of hours of CC-a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


import numpy as np

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.policy.ideal import ideal_servers
from repro.policy.resizer import (DISK_BW, MIGRATION_FRACTION, RECOVERY_FRACTION,
                                   REPLICAS, SELECTIVE_RATE_LIMIT, PolicyConfig,
                                   PolicyResult)
from repro.workloads.trace import LoadTrace

__all__ = ["ReplayResult", "replay_policy"]


@dataclass
class ReplayResult(PolicyResult):
    """Measured outcome of one object-level replay: a
    :class:`~repro.policy.resizer.PolicyResult` that also counts the
    objects the window wrote."""

    objects_written: int


def replay_policy(
    name: str,
    trace: LoadTrace,
    config: PolicyConfig,
    object_size: int = 4 * 1024 * 1024,
    preload_objects: int = 500,
) -> ReplayResult:
    """Replay *trace* against a real cluster under policy *name*.

    Parameters mirror :func:`repro.policy.resizer.simulate_policy`;
    *preload_objects* populates the cluster before the window starts
    (the migration-relevant resident data).
    """
    if not 0 < object_size < math.inf:
        raise ValueError(f"object_size must be positive and finite "
                         f"(got {object_size})")
    if name == "original-ch":
        return _replay_original(trace, config, object_size,
                                preload_objects)
    if name in ("primary-full", "primary-selective"):
        return _replay_elastic(name, trace, config, object_size,
                               preload_objects)
    raise ValueError(f"unknown policy for replay: {name!r}")


def _write_stream(cluster, trace, t, dt, object_size, state) -> None:
    """Materialise one sample's writes as objects: the next
    consecutive oids, written as one batch."""
    state["carry"] += trace.write_load[t] * dt
    count = 0
    while state["carry"] >= object_size:
        state["carry"] -= object_size
        count += 1
    if count:
        first = state["oid"]
        cluster.write_many(range(first, first + count), object_size)
        state["oid"] += count


def _extra_servers(drained_bytes: float, dt: float,
                   config: PolicyConfig) -> int:
    """Servers whose disks the measured migration traffic occupied."""
    return math.ceil(drained_bytes / dt / DISK_BW) \
        if drained_bytes > 0 else 0


def _replay_elastic(name: str, trace: LoadTrace, config: PolicyConfig,
                    object_size: int, preload: int) -> ReplayResult:
    cluster = ElasticCluster(n=config.n_max, replicas=REPLICAS,
                             p=config.p)
    cluster.write_many(range(preload), object_size)

    ideal = ideal_servers(trace.load, config.per_server_bw, config.n_max)
    dt = trace.dt
    state = {"oid": preload, "carry": 0.0}
    servers = np.empty(len(trace), dtype=int)
    migrated = 0.0
    debt = 0.0      # primary-full: bytes still draining

    k = max(config.p, int(ideal[0]))
    cluster.resize(k)

    for t in range(len(trace)):
        drained = 0.0
        if name == "primary-selective":
            budget = int(SELECTIVE_RATE_LIMIT * dt)
            report = cluster.run_selective_reintegration(
                budget_bytes=budget)
            drained = report.bytes_migrated
            migrated += drained
        else:
            if debt > 0:
                cap = (MIGRATION_FRACTION * cluster.num_active
                       * DISK_BW * dt)
                drained = min(debt, cap)
                debt -= drained

        target = int(min(config.n_max,
                         max(config.p, int(ideal[t])
                             + _extra_servers(drained, dt, config))))
        if target > cluster.num_active:
            cluster.resize(target)
            if name == "primary-full":
                moved = cluster.run_full_reintegration()
                migrated += moved
                debt += moved   # logical move now, bandwidth paid over time
        elif target < cluster.num_active:
            blocked = (name == "primary-full"
                       and debt > MIGRATION_FRACTION
                       * cluster.num_active * DISK_BW * dt)
            if not blocked:
                cluster.resize(target)

        _write_stream(cluster, trace, t, dt, object_size, state)
        servers[t] = cluster.num_active

    return ReplayResult(
        name=name, servers=servers, dt=dt, ideal=ideal,
        migrated_bytes=migrated, rereplicated_bytes=0.0,
        objects_written=state["oid"] - preload,
    )


def _replay_original(trace: LoadTrace, config: PolicyConfig,
                     object_size: int, preload: int) -> ReplayResult:
    cluster = OriginalCHCluster(n=config.n_max, replicas=REPLICAS,
                                vnodes_per_server=max(
                                    64, 4_096 // config.n_max))
    cluster.write_many(range(preload), object_size)

    ideal = ideal_servers(trace.load, config.per_server_bw, config.n_max)
    dt = trace.dt
    state = {"oid": preload, "carry": 0.0}
    servers = np.empty(len(trace), dtype=int)
    migrated = 0.0
    rereplicated = 0.0
    debt = 0.0
    removal_credit = 0.0

    for t in range(len(trace)):
        drained = 0.0
        if debt > 0:
            cap = (MIGRATION_FRACTION * cluster.num_active
                   * DISK_BW * dt)
            drained = min(debt, cap)
            debt -= drained

        target = int(min(config.n_max,
                         max(REPLICAS, int(ideal[t])
                             + _extra_servers(drained, dt, config))))

        if target > cluster.num_active:
            removal_credit = 0.0
            missing = [r for r in cluster.servers
                       if r not in cluster.members]
            for rank in sorted(missing)[:target - cluster.num_active]:
                moved = cluster.add_server(rank)
                migrated += moved
                debt += moved
        elif target < cluster.num_active and debt <= (
                MIGRATION_FRACTION * cluster.num_active
                * DISK_BW * dt):
            # Sequential departures, each gated on its measured
            # clean-up volume.
            removal_credit += dt
            while cluster.num_active > max(target, REPLICAS):
                victim = max(cluster.members)
                plan = cluster.plan_departure(victim)
                rate = (RECOVERY_FRACTION * cluster.num_active
                        * DISK_BW)
                needed = plan.total_bytes / rate
                if removal_credit < needed:
                    break
                removal_credit -= needed
                rereplicated += cluster.remove_server(victim)

        _write_stream(cluster, trace, t, dt, object_size, state)
        servers[t] = cluster.num_active

    return ReplayResult(
        name="original-ch", servers=servers, dt=dt, ideal=ideal,
        migrated_bytes=migrated, rereplicated_bytes=rereplicated,
        objects_written=state["oid"] - preload,
    )
