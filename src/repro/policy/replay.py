"""Object-level trace replay — cross-validating the fluid model.

The §V-B analysis (:mod:`repro.policy.resizer`) is a *fluid* model:
migration volumes are estimated from layout shares and dataset sizes.
This module runs the same policy rules — the one loop of
:meth:`~repro.policy.resizer._PolicyBase._run` — with a **real**
cluster as the level that moves the bytes: actual objects, actual
placements, actual dirty entries, actual re-integration and clean-up
byte counts.  If the fluid model is honest, both levels must tell the
same story: same policy ordering, comparable relative machine hours.

Replay is orders of magnitude more expensive than the fluid model
(every write is a placement), so it runs on short windows; the
validation bench replays 90 minutes of CC-a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.policy.analysis import POLICY_ORDER
from repro.policy.resizer import (_POLICIES, REPLICAS, OriginalCHPolicy,
                                  PolicyConfig, PolicyResult,
                                  PrimarySelectivePolicy, _PolicyBase)
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
    if name not in POLICY_ORDER:
        raise ValueError(f"unknown policy for replay: {name!r}")
    policy = _POLICIES[name](config)
    level = _ClusterLevel(policy, object_size, preload_objects)
    result = policy._run(trace, None, level)
    return ReplayResult(**vars(result),
                        objects_written=level.next_oid - preload_objects)


class _ClusterLevel:
    """The level hooks of :class:`~repro.policy.resizer._PolicyBase`,
    measured on an :class:`ElasticCluster` (primary-server policies) or
    an :class:`OriginalCHCluster`."""

    def __init__(self, policy: _PolicyBase, object_size: int,
                 preload: int) -> None:
        self.policy = policy
        self.original = isinstance(policy, OriginalCHPolicy)
        self.selective = isinstance(policy, PrimarySelectivePolicy)
        self.object_size = object_size
        self.preload = preload
        self.next_oid = preload
        self.carry = 0.0            # written bytes not yet an object

    def start(self, k: int) -> None:
        cfg = self.policy.cfg
        if self.original:
            self.cluster = OriginalCHCluster(
                n=cfg.n_max, replicas=REPLICAS,
                vnodes_per_server=max(64, 4_096 // cfg.n_max))
            # Leave while empty, so the setup re-replicates nothing.
            for _ in range(cfg.n_max - k):
                self.cluster.remove_server(max(self.cluster.members))
            self.cluster.write_many(range(self.preload), self.object_size)
        else:
            self.cluster = ElasticCluster(n=cfg.n_max, replicas=REPLICAS,
                                          p=cfg.p)
            self.cluster.write_many(range(self.preload), self.object_size)
            self.cluster.resize(k)

    def drain(self, k: int, dt: float, state: Dict[str, float]) -> float:
        if not self.selective:
            # Growth moved its objects already; their bandwidth is paid
            # as the debt drains.
            return self.policy.drain(k, dt, state)
        budget = int(self.policy.drain_capacity(k) * dt)
        report = self.cluster.run_selective_reintegration(
            budget_bytes=budget)
        return report.bytes_migrated / dt

    def growth_debt(self, k_old: int, k_new: int,
                    state: Dict[str, float]) -> float:
        cluster = self.cluster
        if self.original:
            missing = sorted(set(cluster.servers) - set(cluster.members))
            return sum(map(cluster.add_server, missing[:k_new - k_old]))
        cluster.resize(k_new)
        if self.selective:
            return 0.0      # the dirty table drains, budgeted
        return cluster.run_full_reintegration()

    def shrink_to(self, k_old: int, k_new: int) -> None:
        self.cluster.resize(k_new)

    def departure_bytes(self, k: int) -> float:
        return self.cluster.plan_departure(
            max(self.cluster.members)).total_bytes

    def depart(self, k: int) -> float:
        return self.cluster.remove_server(max(self.cluster.members))

    def write(self, k: int, write_load: float, dt: float,
              state: Dict[str, float]) -> None:
        """The sample's writes as objects: the next consecutive oids,
        written as one batch."""
        count, self.carry = divmod(self.carry + write_load * dt,
                                   self.object_size)
        count = int(count)
        if count:
            first = self.next_oid
            self.cluster.write_many(range(first, first + count),
                                    self.object_size)
            self.next_oid += count
