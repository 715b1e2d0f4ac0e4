"""End-to-end trace analysis: Figures 8/9 and Table II.

:func:`analyze_trace` runs the ideal oracle plus the three real
policies over one trace and packages the active-server series, machine
hours, and Table II's relative-machine-hour ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cluster.power import PowerModel
from repro.policy.ideal import ideal_servers
from repro.policy.resizer import (
    PolicyConfig,
    PolicyResult,
    default_dataset_bytes,
    simulate_policy,
)
from repro.workloads.trace import LoadTrace

__all__ = ["TraceAnalysis", "analyze_trace", "config_for_trace",
           "POLICY_ORDER"]

POLICY_ORDER = ("original-ch", "primary-full", "primary-selective")


@dataclass
class TraceAnalysis:
    """All series and summary numbers for one trace."""

    trace_name: str
    config: PolicyConfig
    dt: float
    ideal: np.ndarray
    results: Dict[str, PolicyResult]

    @property
    def ideal_machine_hours(self) -> float:
        return float(self.ideal.sum() * self.dt / 3600.0)

    def relative_machine_hours(self) -> Dict[str, float]:
        """Table II's row for this trace."""
        return {name: res.relative_machine_hours
                for name, res in self.results.items()}

    def savings_vs_original(self) -> Dict[str, float]:
        """§V-B's 'saves X% machine hours comparing to the original
        CH' numbers."""
        base = self.results["original-ch"].machine_hours
        return {
            name: 1.0 - res.machine_hours / base
            for name, res in self.results.items()
            if name != "original-ch"
        }

    def series(self) -> Dict[str, np.ndarray]:
        """Aligned {'ideal': ..., policy: ...} server-count series —
        the curves of Figures 8/9."""
        out: Dict[str, np.ndarray] = {"ideal": self.ideal}
        for name, res in self.results.items():
            out[name] = res.servers
        return out

    def energy_summary(self,
                       power: Optional[PowerModel] = None
                       ) -> Dict[str, Dict[str, float]]:
        """Per-policy energy (kWh) and savings relative to keeping the
        whole cluster on for the trace — the paper's §I motivation
        ("power consumption proportional to the dynamic system load")
        in concrete units."""
        if power is None:
            power = PowerModel()
        duration_hours = len(self.ideal) * self.dt / 3600.0
        n = self.config.n_max
        out: Dict[str, Dict[str, float]] = {}
        for name, res in self.results.items():
            mh = res.machine_hours
            off_hours = n * duration_hours - mh
            out[name] = {
                "energy_kwh": power.energy_kwh(mh, off_hours),
                "savings_vs_always_on": power.savings_vs_always_on(
                    mh, n, duration_hours),
            }
        out["always-on"] = {
            "energy_kwh": power.energy_kwh(n * duration_hours, 0.0),
            "savings_vs_always_on": 0.0,
        }
        return out


def config_for_trace(trace: LoadTrace, n_max: int,
                     working_set_hours: float = 0.75,
                     **overrides) -> PolicyConfig:
    """A :class:`PolicyConfig` calibrated the way the paper's own
    analysis is: the cluster is provisioned for the trace's *peak*
    (``per_server_bw = peak_load / n_max``, so the ideal series spans
    the full 1..n_max range of Figures 8/9), and the migration-relevant
    dataset is a hot working set of a couple of hours of mean load."""
    stats = trace.stats()
    # Provision for the sustained peak (99th percentile), not the single
    # tallest sample: the ideal series then spans the figures' full
    # y-range while clipping at n_max only in rare extremes, as the
    # paper's ideal curves do.
    import numpy as np
    p99 = float(np.percentile(trace.load, 99))
    overrides.setdefault("per_server_bw", max(p99, 1.0) / n_max)
    overrides.setdefault(
        "dataset_bytes",
        max(1.0, stats["mean_load"] * working_set_hours * 3600.0))
    return PolicyConfig(n_max=n_max, **overrides)


def analyze_trace(trace: LoadTrace,
                  config: Optional[PolicyConfig] = None,
                  n_max: Optional[int] = None,
                  **config_overrides) -> TraceAnalysis:
    """Run the full §V-B analysis on one trace.

    Parameters
    ----------
    trace:
        The offered-load trace.
    config:
        Complete model configuration; when omitted, one is built with
        *n_max* (required), a hot-working-set dataset size derived from
        the trace, and any keyword overrides.
    """
    if config is None:
        if n_max is None:
            raise ValueError("provide either config or n_max")
        config_overrides.setdefault(
            "dataset_bytes", default_dataset_bytes(trace))
        config = PolicyConfig(n_max=n_max, **config_overrides)

    ideal = ideal_servers(trace.load, config.per_server_bw, config.n_max)
    results = {name: simulate_policy(name, trace, config)
               for name in POLICY_ORDER}
    return TraceAnalysis(
        trace_name=trace.name,
        config=config,
        dt=trace.dt,
        ideal=ideal,
        results=results,
    )
