"""Figures 8/9 and Tables I/II: the trace-driven policy analysis.

One call builds the synthetic CC-a / CC-b trace, calibrates the policy
configuration to it, runs the four policies, and extracts both the
plot window the figures show and the Table II ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.policy.analysis import (
    TraceAnalysis,
    analyze_trace,
    config_for_trace,
)
from repro.workloads.cloudera import (
    CC_A,
    CC_B,
    generate_cc_a,
    generate_cc_b,
)
from repro.workloads.trace import LoadTrace, TraceSpec

__all__ = ["TraceExperiment", "run_trace_analysis", "FIGURE_N_MAX"]

#: Cluster sizes read off the figures' y-axes (Fig 8 tops out at 50
#: servers, Fig 9 at ~180) — the deployments behind the traces, smaller
#: than Table I's raw machine counts.
FIGURE_N_MAX = {"CC-a": 50, "CC-b": 180}


@dataclass
class TraceExperiment:
    """Everything the trace benches report for one trace."""

    spec: TraceSpec
    trace: LoadTrace
    analysis: TraceAnalysis
    #: The ~250-minute window the figures plot (sample indices).
    window: slice

    def figure_series(self) -> Dict[str, np.ndarray]:
        """The four curves of Figure 8/9, restricted to the window."""
        return {name: series[self.window]
                for name, series in self.analysis.series().items()}

    def window_minutes(self) -> np.ndarray:
        idx = np.arange(self.window.start, self.window.stop)
        return idx * self.trace.dt / 60.0 - self.window.start \
            * self.trace.dt / 60.0

    def table2_row(self) -> Dict[str, float]:
        return self.analysis.relative_machine_hours()

    def table1_row(self) -> Dict[str, object]:
        st = self.trace.stats()
        return {
            "trace": self.spec.name,
            "machines": self.spec.machines,
            "length_days": round(self.spec.length_days, 2),
            "bytes_processed_TB": round(st["total_bytes"] / 1e12, 1),
        }


def run_trace_analysis(
    which: str = "CC-a",
    seed: Optional[int] = None,
    window_start_minutes: float = 600.0,
    window_minutes: float = 250.0,
    **config_overrides,
) -> TraceExperiment:
    """Build + analyse one trace.

    Parameters
    ----------
    which:
        "CC-a" or "CC-b".
    seed:
        Trace-generator seed override (defaults are fixed, so the
        benches are reproducible).
    window_start_minutes / window_minutes:
        The sub-range plotted as the figure (the traces are far longer
        than the 250-minute windows shown in the paper).
    """
    if which == "CC-a":
        spec, generate = CC_A, generate_cc_a
    elif which == "CC-b":
        spec, generate = CC_B, generate_cc_b
    else:
        raise ValueError(f"unknown trace {which!r}; use 'CC-a' or 'CC-b'")
    kwargs = {"seed": seed} if seed is not None else {}
    trace = generate(**kwargs)

    config = config_for_trace(trace, FIGURE_N_MAX[which],
                              **config_overrides)
    analysis = analyze_trace(trace, config=config)

    i0 = int(window_start_minutes * 60.0 / trace.dt)
    count = max(1, int(window_minutes * 60.0 / trace.dt))
    i0 = min(i0, max(0, len(trace) - count))
    window = slice(i0, min(len(trace), i0 + count))

    return TraceExperiment(spec=spec, trace=trace, analysis=analysis,
                           window=window)
