"""The paper's contribution: elastic consistent hashing.

Layered as in §III of the paper:

* :mod:`repro.core.layout` — equal-work data layout (§III-C) and node
  capacity configuration (§III-D);
* :mod:`repro.core.placement` — primary-server data placement,
  Algorithm 1 (§III-B), plus the original-CH baseline placement;
* :mod:`repro.core.versioning` — cluster membership versioning
  (§III-E-1);
* :mod:`repro.core.dirty_table` — dirty-data tracking (§III-E-2);
* :mod:`repro.core.reintegration` — selective data re-integration,
  Algorithm 2 (§III-E-3);
* :mod:`repro.core.elastic` — the :class:`ElasticConsistentHash` facade
  gluing the above together behind one object-location API.
"""

from repro.core.layout import (
    EqualWorkLayout,
    primary_count,
    equal_work_weights,
    CapacityPlan,
)
from repro.core.placement import (
    PlacementResult,
    place_original,
    place_primary,
    ChainMode,
)
from repro.core.versioning import MembershipTable, VersionHistory
from repro.core.dirty_table import DirtyEntry, DirtyTable
from repro.core.reintegration import (
    MigrationPlan,
    MigrationTask,
    ReintegrationEngine,
    ReintegrationReport,
)
from repro.core.elastic import ElasticConsistentHash

__all__ = [
    "EqualWorkLayout",
    "primary_count",
    "equal_work_weights",
    "CapacityPlan",
    "PlacementResult",
    "place_original",
    "place_primary",
    "ChainMode",
    "MembershipTable",
    "VersionHistory",
    "DirtyEntry",
    "DirtyTable",
    "MigrationPlan",
    "MigrationTask",
    "ReintegrationEngine",
    "ReintegrationReport",
    "ElasticConsistentHash",
]
