"""Data-distribution statistics for layout validation (Figure 5).

These quantify how well a measured per-rank block distribution matches
the equal-work target: the ideal curve and a measured shape's
correlation with it.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

__all__ = ["shape_correlation", "equal_work_reference"]


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
