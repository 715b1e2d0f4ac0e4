"""Figure 5: the equal-work data layout and re-integration volume
across versions.

The figure's scenario: a 10-server cluster goes through three versions
— v1 with 10 active, v2 with 8 active (50,000 objects written while
shrunk, distorting the layout curve because the last two servers are
off), v3 back to 10 active.  The plot shows blocks per server rank in
each version and, shaded, the data that must re-integrate to recover
the equal-work curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster.cluster import ElasticCluster
from repro.cluster.runtime import OBJECT_SIZE, REPLICAS
from repro.metrics.distribution import (
    equal_work_reference,
    shape_correlation,
)

__all__ = ["LayoutVersionsResult", "run_layout_versions"]

#: The figure's cluster and how many of its servers version 2 turns off.
N = 10
OFF_COUNT = 2


@dataclass
class LayoutVersionsResult:
    """Per-version block distributions + the migration volume."""

    n: int
    p: int
    replicas: int
    #: blocks per rank after each version's writes, keyed by label.
    distributions: Dict[str, Dict[int, int]]
    #: objects that must move in v3 (the shaded area of Figure 5).
    reintegration_objects: int
    reintegration_bytes: int
    #: Pearson correlation of the v1 distribution with the ideal
    #: equal-work shape.
    v1_shape_correlation: float


def run_layout_versions(
    objects_v1: int = 40_000,
    objects_v2: int = 50_000,
) -> LayoutVersionsResult:
    """Run the Figure 5 scenario and measure the distributions.

    Defaults follow the figure: 50,000 objects written in version 2
    with :data:`OFF_COUNT` (2) of the :data:`N` (10) servers off.
    Both counts must be >= 1: an empty version has no distribution to
    draw, and nothing written while shrunk leaves nothing to
    re-integrate.
    """
    for name, count in (("objects_v1", objects_v1),
                        ("objects_v2", objects_v2)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1 (got {count})")
    cluster = ElasticCluster(N, REPLICAS)

    # Version 1: full power.
    cluster.write_many(range(objects_v1), OBJECT_SIZE)
    dist_v1 = cluster.replicas_per_rank()

    # Version 2: shrink, write the figure's 50k objects.
    cluster.resize(N - OFF_COUNT)
    cluster.write_many(range(objects_v1, objects_v1 + objects_v2),
                       OBJECT_SIZE)
    dist_v2 = cluster.replicas_per_rank()

    # Version 3: back to full power; the selective backlog *is* the
    # shaded re-integration area.
    cluster.resize(N)
    backlog_bytes = cluster.selective_backlog_bytes()
    report = cluster.run_selective_reintegration()
    dist_v3 = cluster.replicas_per_rank()

    ref = equal_work_reference(N, cluster.ech.p)
    corr = shape_correlation(
        {r: float(c) for r, c in dist_v1.items()}, ref)

    return LayoutVersionsResult(
        n=N,
        p=cluster.ech.p,
        replicas=REPLICAS,
        distributions={
            "version1 (full power)": dist_v1,
            "version2 (shrunk)": dist_v2,
            "version3 (re-integrated)": dist_v3,
        },
        reintegration_objects=report.entries_migrated,
        reintegration_bytes=report.bytes_migrated,
        v1_shape_correlation=corr,
    )
