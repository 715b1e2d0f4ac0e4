"""Departure recovery planning for the original-CH baseline.

§II-C: "When one server leaves the hash ring, lost data copies have to
be re-replicated on the rest servers.  Additionally, before the
re-replication finishes, the consistent hashing based distributed
storage is not able to tolerate another server's departure."

:func:`plan_departure_recovery` computes that clean-up work *without*
mutating the cluster, so the resize-agility experiment (Figure 2) and
the trace analyser can model the delay a departure imposes:
``delay = plan.total_bytes / available_bandwidth``.
"""

from __future__ import annotations

from repro.cluster.cluster import OriginalCHCluster
from repro.core.reintegration import MigrationPlan
from repro.obs.runtime import OBS

__all__ = ["plan_departure_recovery"]


def plan_departure_recovery(cluster: OriginalCHCluster,
                            rank: int) -> MigrationPlan:
    """The re-replication a departure of *rank* would require (the
    rule is :meth:`OriginalCHCluster.plan_departure`, which
    ``remove_server`` applies), announced as a ``recovery.plan``
    event."""
    plan = cluster.plan_departure(rank)
    if OBS.bus.active:
        OBS.bus.emit("recovery.plan", departing=rank,
                     objects=plan.num_objects, nbytes=plan.total_bytes)
    return plan
