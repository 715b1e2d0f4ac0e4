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

Servers model power and capacity; one object table records every
replica, so layout figures (Fig 5) and migration volumes are measured,
not estimated.
"""

from repro.cluster.objects import ObjectTable
from repro.cluster.server import (
    CapacityExceeded,
    PowerState,
    StorageServer,
)
from repro.cluster.power import PowerModel
from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.vdi import VirtualDisk, VdiRange
from repro.cluster.fsck import (
    FsckIssue,
    FsckReport,
    check_cluster,
)
from repro.core.reintegration import MigrationPlan

__all__ = [
    "ObjectTable",
    "PowerState",
    "StorageServer",
    "CapacityExceeded",
    "PowerModel",
    "ElasticCluster",
    "OriginalCHCluster",
    "VirtualDisk",
    "VdiRange",
    "FsckIssue",
    "FsckReport",
    "check_cluster",
    "MigrationPlan",
]
