"""Dynamic primary count — the SpringFS/Sierra extension (§I, §VI).

The paper notes that "since the small number of primary servers limits
the write performance, several recent studies propose to dynamically
change the number of primary servers to balance the write performance
and elasticity" — and cites exactly this as the design space Rabbit
and SpringFS explore.  This module brings that capability to elastic
consistent hashing: re-designating how many ranks are primaries and
re-weighting the ring to the new equal-work curve.

A primary-count change is a *re-layout*: weights move, roles move, so
placements move, so data moves.  Two properties keep it tractable:

* vnode position streams are prefix-stable (a weight change only adds
  or removes the tail of a server's vnode list), so the new ring keeps
  most of the old one's positions and data movement is proportional to
  the weight delta;
* it is only legal in a quiescent state — full power, dirty table
  empty — because historical placements are computed against the
  *current* layout: re-layouting under outstanding dirty entries would
  corrupt ``locate(oid, old_version)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.core.elastic import ElasticConsistentHash
from repro.core.layout import EqualWorkLayout

__all__ = ["PrimaryResizePlan", "plan_primary_resize", "apply_relayout"]


@dataclass(frozen=True)
class PrimaryResizePlan:
    """The consequences of changing p, measured on a sample."""

    old_p: int
    new_p: int
    #: {rank: (old_weight, new_weight)} for ranks whose weight changes.
    weight_changes: Dict[int, Tuple[int, int]]
    #: Fraction of sampled objects whose placement changes.
    moved_fraction: float
    #: Minimum power state before/after (the elasticity side).
    old_min_active: int
    new_min_active: int


def _layout_for(ech: ElasticConsistentHash, new_p: int) -> EqualWorkLayout:
    if not 1 <= new_p <= ech.n:
        raise ValueError(f"primary count {new_p} out of range 1..{ech.n}")
    if ech.layout_mode == "uniform":
        return EqualWorkLayout.uniform(ech.n, ech.replicas,
                                       ech.layout.B, new_p)
    return EqualWorkLayout.create(ech.n, ech.replicas, ech.layout.B,
                                  new_p)


def plan_primary_resize(ech: ElasticConsistentHash, new_p: int,
                        sample_oids: Iterable[int] = range(2_000),
                        ) -> PrimaryResizePlan:
    """Measure what changing to *new_p* primaries would do — without
    mutating anything.

    Placement movement is measured by re-running the sample against a
    scratch facade with the new layout (cheap: one ring build).
    """
    new_layout = _layout_for(ech, new_p)
    scratch = ElasticConsistentHash(
        n=ech.n, replicas=ech.replicas, B=ech.layout.B, p=new_p,
        chain=ech.chain, layout_mode=ech.layout_mode,
        placement_mode=ech.placement_mode)

    moved = 0
    total = 0
    for oid in sample_oids:
        total += 1
        if (set(ech.locate(oid).servers)
                != set(scratch.locate(oid).servers)):
            moved += 1

    changes = {
        rank: (ech.layout.weight_of(rank), new_layout.weight_of(rank))
        for rank in ech.layout.ranks
        if ech.layout.weight_of(rank) != new_layout.weight_of(rank)
    }
    return PrimaryResizePlan(
        old_p=ech.p,
        new_p=new_p,
        weight_changes=changes,
        moved_fraction=moved / total if total else 0.0,
        old_min_active=ech.layout.min_active,
        new_min_active=new_layout.min_active,
    )


def apply_relayout(ech: ElasticConsistentHash, new_p: int) -> None:
    """Switch the facade to *new_p* primaries (roles + ring weights).

    Requires quiescence: full power and an empty dirty table —
    otherwise historical placements (which Algorithm 2 still needs)
    would silently change under the outstanding entries.  The caller
    owns the data migration; :meth:`repro.cluster.cluster.
    ElasticCluster.set_primary_count` does both.
    """
    if not ech.is_full_power:
        raise RuntimeError("re-layout requires full power")
    if not ech.dirty.is_empty():
        raise RuntimeError(
            "re-layout requires an empty dirty table (run selective "
            "re-integration first)")
    # New weights and roles: a new ring and a new kernel, not an edit
    # of the old ones.
    ech._use_layout(_layout_for(ech, new_p))
