"""Resizing controllers: deciding *when* to resize, from observed load.

The paper's closing future work: "a resizing policy based on workload
profiling and prediction" (§VII; §VI surveys AutoScale, Lim et al.,
Elastisizer, SCADS Director, AGILE as the complementary line of work).
The mechanisms in :mod:`repro.policy.resizer` assume a clairvoyant
target (the ideal series); these controllers produce *realisable*
target series from load the system has actually seen:

* :class:`ReactiveController` — follow the last observed load with a
  headroom multiplier; grow immediately, shrink only after the load
  has stayed low for a hold-down window (AutoScale-style hysteresis);
* :class:`PredictiveController` — double-exponential (Holt) smoothing
  forecast one horizon ahead, plus headroom — adds servers *before*
  the ramp arrives (AGILE-style);
* :class:`OracleController` — the clairvoyant ideal, for reference.

Controllers compose with any resizing policy:
``simulate_policy(name, trace, cfg, requested=ctrl.requested(trace, cfg))``.

Provisioning quality is judged by :func:`evaluate_provisioning`: the
fraction of time the active set could not carry the offered load and
the average shortfall — the trade-off against machine hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.policy.resizer import PolicyConfig
from repro.workloads.trace import LoadTrace

__all__ = [
    "OracleController",
    "ReactiveController",
    "PredictiveController",
    "evaluate_provisioning",
]


@dataclass(frozen=True)
class OracleController:
    """Clairvoyant reference: request exactly the ideal count."""

    name: str = "oracle"

    def requested(self, trace: LoadTrace,
                  config: PolicyConfig) -> np.ndarray:
        need = np.ceil(trace.load / config.per_server_bw).astype(int)
        return np.clip(need, 1, config.n_max)


@dataclass(frozen=True)
class ReactiveController:
    """Hysteresis follower.

    Each sample it sees the *previous* sample's load (you cannot react
    to load you have not observed), requests ``headroom`` times the
    servers that load needs, and only shrinks after the implied target
    has been below the current request for ``hold_samples`` in a row —
    the AutoScale-style guard against flapping on transient dips.
    """

    headroom: float = 1.2
    hold_samples: int = 5
    name: str = "reactive"

    def __post_init__(self) -> None:
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        if self.hold_samples < 1:
            raise ValueError("hold_samples must be >= 1")

    def requested(self, trace: LoadTrace,
                  config: PolicyConfig) -> np.ndarray:
        load = trace.load
        out = np.empty(load.size, dtype=int)
        current = max(1, math.ceil(
            load[0] * self.headroom / config.per_server_bw))
        below = 0
        for t in range(load.size):
            observed = load[t - 1] if t > 0 else load[0]
            want = max(1, math.ceil(
                observed * self.headroom / config.per_server_bw))
            if want >= current:
                current = want          # grow immediately
                below = 0
            else:
                below += 1
                if below >= self.hold_samples:
                    current = want      # shrink after the hold-down
                    below = 0
            out[t] = min(config.n_max, current)
        return out


#: Holt smoothing weights of the level and of the trend.
ALPHA = 0.5
BETA = 0.3


@dataclass(frozen=True)
class PredictiveController:
    """Holt linear-trend forecaster.

    Maintains level+trend estimates of the load (smoothed by
    :data:`ALPHA` and :data:`BETA`) and requests capacity
    for the forecast ``horizon_samples`` ahead (resizing takes time to
    pay off, so provision for where the load is *going*), with the
    same headroom multiplier.  Forecasts are floored at the observed
    load so a falling forecast never undercuts what is already there.
    """

    horizon_samples: int = 3
    headroom: float = 1.1
    name: str = "predictive"

    def __post_init__(self) -> None:
        if self.horizon_samples < 0:
            raise ValueError("horizon_samples must be >= 0")
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1")

    def requested(self, trace: LoadTrace,
                  config: PolicyConfig) -> np.ndarray:
        load = trace.load
        out = np.empty(load.size, dtype=int)
        level = float(load[0])
        trend = 0.0
        for t in range(load.size):
            observed = load[t - 1] if t > 0 else load[0]
            prev_level = level
            level = ALPHA * observed + (1 - ALPHA) * (level + trend)
            trend = (BETA * (level - prev_level)
                     + (1 - BETA) * trend)
            forecast = max(observed,
                           level + self.horizon_samples * trend)
            want = max(1, math.ceil(
                forecast * self.headroom / config.per_server_bw))
            out[t] = min(config.n_max, want)
        return out


def evaluate_provisioning(trace: LoadTrace, servers: np.ndarray,
                          per_server_bw: float) -> Dict[str, float]:
    """Provisioning quality of an active-server series.

    Returns the violation fraction (samples where capacity < offered
    load), the mean shortfall across violating samples (as a fraction
    of the load), and the mean over-provisioned servers.
    """
    if len(servers) != len(trace.load):
        raise ValueError("series length mismatch")
    capacity = servers * per_server_bw
    short = trace.load - capacity
    violating = short > 0
    n = trace.load.size
    shortfall = 0.0
    if violating.any():
        shortfall = float(
            (short[violating] / trace.load[violating]).mean())
    need = np.ceil(trace.load / per_server_bw)
    return {
        "violation_fraction": float(violating.sum() / n),
        "mean_shortfall_fraction": shortfall,
        "mean_extra_servers": float(np.maximum(servers - need, 0).mean()),
    }
