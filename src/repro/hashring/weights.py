"""Virtual-node weight assignment helpers.

The number of virtual nodes a server owns is its *weight*: the expected
fraction of single-copy keys it stores is (approximately) its weight
divided by the total.  The original consistent hashing uses uniform
weights; the equal-work layout in :mod:`repro.core.layout` uses rank-
dependent weights.  This module holds the fairness diagnostics used to
pick the vnode budget ``B``.
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["expected_shares", "share_error"]


def expected_shares(weights: Dict[Hashable, int]) -> Dict[Hashable, float]:
    """Ideal fraction of keys per server implied by the weights."""
    total = float(sum(weights.values()))
    if total <= 0:
        raise ValueError("total weight must be positive")
    return {sid: w / total for sid, w in weights.items()}


def share_error(observed: Dict[Hashable, float],
                expected: Dict[Hashable, float]) -> float:
    """Maximum relative deviation of observed from expected share.

    The paper (§III-C) requires ``B`` "large enough for data
    distribution fairness"; this metric quantifies *how* fair a given
    ``B`` is and drives the Ablation-B bench.
    """
    err = 0.0
    for sid, exp in expected.items():
        if exp <= 0:
            continue
        obs = observed.get(sid, 0.0)
        err = max(err, abs(obs - exp) / exp)
    return err
