"""Equal-work data layout (§III-C) and node capacity configuration
(§III-D).

The layout assigns each server a virtual-node *weight* so that the data
volume per server follows Rabbit's equal-work curve:

* ``p = ceil(n / e^2)`` servers are primaries, each weighted ``B / p``;
* the secondary with rank ``i`` (``p < i <= n``) is weighted ``B / i``;

where ``B`` is an integer vnode budget "large enough for data
distribution fairness".  With r-way replication and one replica pinned
to the primaries, this makes the *expected* number of blocks on a
primary ``N/p`` and on secondary rank i proportional to ``1/i`` — the
equal-work shape drawn as the red line in Figure 5, which is what gives
every active subset ``{1..k}`` read-performance proportional to k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.hashring.weights import expected_shares

__all__ = [
    "primary_count",
    "equal_work_weights",
    "EqualWorkLayout",
    "CapacityPlan",
]

_E_SQUARED = math.e ** 2


def primary_count(n: int, replicas: int = 2) -> int:
    """Number of primary servers, ``p = ceil(n / e^2)`` (§III-C).

    The result is floored at 1 and — so that the §III-B special case
    ("more primary servers than the number of replicas" is "in fact
    mostly true") stays representable — is *not* forced above the
    replica count: for tiny clusters where ``p < r`` the placement
    layer handles degraded role assignment instead.
    """
    if n < 1:
        raise ValueError("cluster size must be >= 1")
    if replicas < 1:
        raise ValueError("replica count must be >= 1")
    return max(1, math.ceil(n / _E_SQUARED))


def equal_work_weights(n: int, B: int = 10_000,
                       p: int | None = None) -> Dict[int, int]:
    """Virtual-node weight per rank for the equal-work layout.

    Parameters
    ----------
    n:
        Cluster size; ranks are ``1..n``.
    B:
        Total vnode budget parameter (Equation 1/2's ``B``).  The
        paper's example uses 1000 and notes "a much larger B will be
        chosen for better load balance" in practice.
    p:
        Primary count override; defaults to :func:`primary_count`.

    Returns
    -------
    dict
        ``{rank: weight}`` with every weight >= 1.
    """
    if B < n:
        raise ValueError(f"B={B} too small for n={n}: some weight would be 0")
    if p is None:
        p = primary_count(n)
    if not 1 <= p <= n:
        raise ValueError(f"primary count {p} out of range for n={n}")
    weights: Dict[int, int] = {}
    for rank in range(1, n + 1):
        if rank <= p:
            w = B // p          # Equation 1: v_primary = B / p
        else:
            w = B // rank       # Equation 2: v_secondary_i = B / i
        weights[rank] = max(1, w)
    return weights


@dataclass(frozen=True)
class EqualWorkLayout:
    """The resolved layout for one cluster: ranks, roles and weights.

    This object is pure configuration — it owns no ring and no state —
    so it can be shared by the placement layer, the capacity planner and
    the analysis code.
    """

    n: int
    replicas: int
    B: int
    p: int
    weights: Tuple[int, ...]  # index 0 -> rank 1

    @classmethod
    def create(cls, n: int, replicas: int = 2, B: int = 10_000,
               p: int | None = None) -> "EqualWorkLayout":
        if p is None:
            p = primary_count(n, replicas)
        w = equal_work_weights(n, B, p)
        return cls(n=n, replicas=replicas, B=B, p=p,
                   weights=tuple(w[r] for r in range(1, n + 1)))

    @classmethod
    def uniform(cls, n: int, replicas: int = 2, B: int = 10_000,
                p: int | None = None) -> "EqualWorkLayout":
        """A uniform-weight layout (the original consistent hashing
        distribution) with the same rank/role bookkeeping.  Used where
        the paper isolates re-integration from layout effects (§V-A:
        "primary server and data layout are not considered here")."""
        if B < n:
            raise ValueError(f"B={B} too small for n={n}")
        if p is None:
            p = primary_count(n, replicas)
        if not 1 <= p <= n:
            raise ValueError(f"primary count {p} out of range for n={n}")
        return cls(n=n, replicas=replicas, B=B, p=p,
                   weights=tuple([max(1, B // n)] * n))

    # ------------------------------------------------------------------
    def weight_of(self, rank: int) -> int:
        return self.weights[rank - 1]

    def is_primary(self, rank: int) -> bool:
        return 1 <= rank <= self.p

    @property
    def ranks(self) -> range:
        return range(1, self.n + 1)

    @property
    def primary_ranks(self) -> range:
        return range(1, self.p + 1)

    @property
    def min_active(self) -> int:
        """The smallest power state: primaries only.  This is the floor
        visible in Figures 8/9 ("not able to size down further until
        there are only primary servers")."""
        return self.p

    def weight_map(self) -> Dict[int, int]:
        return {r: self.weights[r - 1] for r in self.ranks}

    def expected_fractions(self) -> Dict[int, float]:
        """Expected fraction of *single-copy* keys per rank implied by
        the weights.  Placement-level effects (primary pinning,
        offloading) are layered on top by the placement tests."""
        return expected_shares(self.weight_map())


@dataclass(frozen=True)
class CapacityPlan:
    """Node capacity configuration (§III-D).

    The equal-work layout stores wildly different volumes per rank, so
    uniform-capacity servers would over-/under-utilise.  The paper's
    mitigation: pick a small set of capacity tiers (e.g. 2 TB, 1.5 TB,
    1 TB, 750 GB, 500 GB, 320 GB) and assign each tier to a group of
    neighbouring ranks, approximately proportional to the rank's weight.

    Attributes
    ----------
    capacities:
        Per-rank capacity in bytes (index 0 -> rank 1).
    tiers:
        The tier sizes used, descending.
    """

    capacities: Tuple[int, ...]
    tiers: Tuple[int, ...]

    #: The paper's example tier set (§III-D), in bytes.
    DEFAULT_TIERS: Tuple[int, ...] = (
        2_000_000_000_000,
        1_500_000_000_000,
        1_000_000_000_000,
        750_000_000_000,
        500_000_000_000,
        320_000_000_000,
    )

    @classmethod
    def for_layout(cls, layout: EqualWorkLayout,
                   tiers: Sequence[int] | None = None,
                   total_capacity: int | None = None) -> "CapacityPlan":
        """Assign each rank the smallest tier whose share of the total
        capacity still covers the rank's share of the data.

        Parameters
        ----------
        layout:
            The equal-work layout to provision for.
        tiers:
            Available capacity sizes, any order; defaults to the
            paper's example set.
        total_capacity:
            Target usable capacity of the whole cluster.  Defaults to
            the sum of the largest tier over all ranks scaled by each
            rank's weight fraction (i.e. "big enough").
        """
        tier_list = tuple(sorted(tiers or cls.DEFAULT_TIERS, reverse=True))
        if any(t <= 0 for t in tier_list):
            raise ValueError("capacity tiers must be positive")
        fracs = layout.expected_fractions()
        if total_capacity is None:
            total_capacity = tier_list[0] * layout.n
        caps: List[int] = []
        for rank in layout.ranks:
            needed = fracs[rank] * total_capacity
            # Smallest tier that still fits this rank's expected volume;
            # neighbouring ranks have similar fractions, so this
            # naturally groups neighbours into the same tier (§III-D).
            chosen = tier_list[0]
            for t in tier_list:
                if t >= needed:
                    chosen = t
                else:
                    break
            caps.append(chosen)
        return cls(capacities=tuple(caps), tiers=tier_list)

    def capacity_of(self, rank: int) -> int:
        return self.capacities[rank - 1]

    @property
    def total(self) -> int:
        return sum(self.capacities)

    def utilisation(self, bytes_per_rank: Dict[int, int]) -> Dict[int, float]:
        """Fraction of each rank's capacity in use — the §III-D balance
        diagnostic."""
        return {
            rank: bytes_per_rank.get(rank, 0) / self.capacities[rank - 1]
            for rank in range(1, len(self.capacities) + 1)
        }
