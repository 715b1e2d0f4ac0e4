"""Data-distribution statistics for layout validation (Figure 5).

These quantify how well a measured per-rank block distribution matches
the equal-work target: the normalised shape, its correlation with the
ideal curve, and inequality measures used by the vnode-budget ablation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

__all__ = ["normalized_shape", "gini", "distribution_stats",
           "shape_correlation", "equal_work_reference",
           "replica_counts_from_matrix"]


def replica_counts_from_matrix(servers: np.ndarray,
                               ranks: Sequence[int]) -> Dict[int, int]:
    """Per-rank replica counts from a bulk placement's ``(N, r)``
    server matrix (``BulkPlacement.servers``) — one ``bincount``
    instead of N·r dict increments.  Unplaceable rows (``-1``) are
    ignored."""
    flat = np.asarray(servers).ravel()
    flat = flat[flat >= 0]
    per_rank = np.bincount(flat, minlength=(max(ranks) + 1) if ranks else 0)
    return {int(r): int(per_rank[r]) for r in ranks}


def normalized_shape(counts: Mapping[int, float]) -> Dict[int, float]:
    """Counts per rank scaled to sum to 1, keyed by rank."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("empty distribution")
    return {rank: c / total for rank, c in sorted(counts.items())}


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution (0 = perfectly
    even, →1 = concentrated).  The equal-work layout is *intentionally*
    uneven, so this is reported, not asserted small."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("empty distribution")
    if np.any(arr < 0):
        raise ValueError("negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    index = np.arange(1, n + 1)
    return float((2 * (index * arr).sum() - (n + 1) * total) / (n * total))


def equal_work_reference(n: int, p: int,
                         replicas: int = 2) -> Dict[int, float]:
    """The ideal equal-work share of stored replicas per rank for an
    n-server, p-primary cluster with one copy pinned to primaries.

    Primaries each take ``1/(r·p)`` of all replicas (one of the r
    copies, split evenly over p); secondary rank i takes the remaining
    ``(r-1)/r`` in proportion to ``1/i``.
    """
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    if replicas < 1:
        raise ValueError("need replicas >= 1")
    sec = {i: 1.0 / i for i in range(p + 1, n + 1)}
    sec_total = sum(sec.values())
    on_primaries = 1.0 / replicas
    out = {rank: on_primaries / p for rank in range(1, p + 1)}
    out.update({i: (1.0 - on_primaries) * w / sec_total
                for i, w in sec.items()})
    return out


def shape_correlation(observed: Mapping[int, float],
                      reference: Mapping[int, float]) -> float:
    """Pearson correlation between an observed per-rank distribution
    and a reference shape (aligned on common ranks)."""
    ranks = sorted(set(observed) & set(reference))
    if len(ranks) < 2:
        raise ValueError("need at least two common ranks")
    a = np.array([observed[r] for r in ranks], dtype=float)
    b = np.array([reference[r] for r in ranks], dtype=float)
    if np.allclose(a, a[0]) or np.allclose(b, b[0]):
        raise ValueError("degenerate (constant) distribution")
    return float(np.corrcoef(a, b)[0, 1])


def distribution_stats(counts: Mapping[int, float]) -> Dict[str, float]:
    """Summary bundle: total, max/mean ratio, Gini, monotonicity
    violations (count of adjacent rank pairs where a lower rank stores
    *less* — the equal-work curve must be non-increasing)."""
    ranks = sorted(counts)
    vals = np.array([counts[r] for r in ranks], dtype=float)
    if vals.size == 0:
        raise ValueError("empty distribution")
    mean = vals.mean()
    violations = int(np.sum(np.diff(vals) > 0))
    return {
        "total": float(vals.sum()),
        "max_over_mean": float(vals.max() / mean) if mean > 0 else 0.0,
        "gini": gini(vals),
        "monotonicity_violations": violations,
    }
