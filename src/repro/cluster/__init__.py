"""A Sheepdog-like object storage cluster, simulated.

This is the substrate the paper's techniques were implemented on
(§IV): an object store distributing fixed-size (default 4 MB) objects
over storage servers.  Two cluster flavours are provided:

* :class:`OriginalCHCluster` — the unmodified baseline: uniform vnode
  weights, servers *leave the ring* when turned down (forcing
  re-replication before the next departure, §II-C), and a node addition
  migrates every object whose placement changed;
* :class:`ElasticCluster` — the paper's system: equal-work weights,
  primary-server placement, powered-down servers stay on the ring,
  write offloading with dirty tracking, and full or selective
  re-integration on power-up.

Servers model capacity and hold actual replica maps so layout figures
(Fig 5) and migration volumes are measured, not estimated.
"""

from repro.cluster.objects import DataObject, ObjectCatalog
from repro.cluster.server import (
    CapacityExceeded,
    PowerState,
    StorageServer,
)
from repro.cluster.power import MachineHourMeter, PowerModel
from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.recovery import plan_departure_recovery
from repro.cluster.vdi import VirtualDisk, VdiRange
from repro.cluster.fsck import (
    FsckIssue,
    FsckReport,
    check_cluster,
    check_holder_index,
    scan_holders,
)
from repro.cluster.migration import (
    full_reintegration_plan,
    addition_migration_plan,
)
from repro.core.reintegration import MigrationPlan

__all__ = [
    "DataObject",
    "ObjectCatalog",
    "PowerState",
    "StorageServer",
    "CapacityExceeded",
    "MachineHourMeter",
    "PowerModel",
    "ElasticCluster",
    "OriginalCHCluster",
    "plan_departure_recovery",
    "VirtualDisk",
    "VdiRange",
    "FsckIssue",
    "FsckReport",
    "check_cluster",
    "check_holder_index",
    "scan_holders",
    "MigrationPlan",
    "full_reintegration_plan",
    "addition_migration_plan",
]
