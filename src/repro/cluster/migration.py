"""Public planner entries for the two bulk migrations.

* :func:`full_reintegration_plan` — "primary+full": restore the layout
  by copying every replica the current placement expects but the
  stored maps lack, dirty table ignored;
* :func:`addition_migration_plan` — the original-CH behaviour on a node
  addition: the added server is assumed empty, so *all* data mapping
  onto it moves (§II-C: "it migrates all the data that are supposed to
  place on the added servers").

The rules themselves live on the clusters
(:meth:`~repro.cluster.cluster.ElasticCluster.plan_full_reintegration`,
:meth:`~repro.cluster.cluster.OriginalCHCluster.plan_addition`), where
the mutating methods apply the same plans; these entries announce the
plan as a ``migration.plan`` event.  Selective planning lives in
:class:`repro.core.reintegration.ReintegrationEngine`.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.core.reintegration import MigrationPlan
from repro.obs.runtime import OBS

__all__ = ["full_reintegration_plan", "addition_migration_plan"]


def _announce(planner: str, plan: MigrationPlan) -> MigrationPlan:
    if OBS.bus.active:
        OBS.bus.emit("migration.plan", planner=planner,
                     objects=plan.num_objects, nbytes=plan.total_bytes)
    return plan


def full_reintegration_plan(cluster: ElasticCluster) -> MigrationPlan:
    """What "primary+full" would move right now (no mutation)."""
    return _announce("full_reintegration",
                     cluster.plan_full_reintegration())


def addition_migration_plan(cluster: OriginalCHCluster,
                            ranks: Sequence[int]) -> MigrationPlan:
    """What re-adding *ranks* (assumed empty) to the baseline cluster
    would migrate (no mutation)."""
    return _announce("addition", cluster.plan_addition(ranks))
