"""Load traces: the IO demand a storage cluster sees over time.

The paper's trace analysis (§V-B) consumes "the I/O load on the storage
cluster over a long period of time"; :class:`LoadTrace` is that series
— bytes/second of offered load at a fixed sample interval, plus the
write fraction the policies need for offload accounting.  Table I's
published envelope lives in :class:`TraceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["TraceSpec", "LoadTrace"]


@dataclass(frozen=True)
class TraceSpec:
    """A trace's published envelope (the paper's Table I row)."""

    name: str
    machines: int               # cluster size upper bound
    length_seconds: float       # trace duration
    bytes_processed: int        # total IO volume over the trace

    @property
    def length_days(self) -> float:
        return self.length_seconds / 86400.0

    @property
    def mean_load(self) -> float:
        """Average offered load in bytes/s."""
        return self.bytes_processed / self.length_seconds


class LoadTrace:
    """Offered-load series at fixed sampling.

    Parameters
    ----------
    load:
        Bytes/second per sample (non-negative).
    dt:
        Sample interval in seconds.
    write_fraction:
        Fraction of the load that is writes (scalar; the Cloudera
        MapReduce mix is write-heavy on the output side, we default to
        0.5).
    name:
        Label for reports.
    """

    def __init__(self, load: np.ndarray, dt: float,
                 write_fraction: float = 0.5,
                 name: str = "trace") -> None:
        load = np.asarray(load, dtype=float)
        if load.ndim != 1 or load.size == 0:
            raise ValueError("load must be a non-empty 1-D array")
        if np.any(load < 0):
            raise ValueError("load must be non-negative")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.load = load
        self.dt = float(dt)
        self.write_fraction = float(write_fraction)
        self.name = name

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.load.size

    @property
    def duration(self) -> float:
        return self.load.size * self.dt

    @property
    def total_bytes(self) -> float:
        return float(self.load.sum() * self.dt)

    @property
    def write_load(self) -> np.ndarray:
        return self.load * self.write_fraction

    def stats(self) -> Dict[str, float]:
        return {
            "duration_s": self.duration,
            "total_bytes": self.total_bytes,
            "mean_load": float(self.load.mean()),
            "peak_load": float(self.load.max()),
            "p95_load": float(np.percentile(self.load, 95)),
            "burstiness": float(self.load.max() / self.load.mean())
            if self.load.mean() > 0 else 0.0,
        }

    def resizing_frequency(self, per_server_bw: float) -> float:
        """Mean per-sample change in the *ideal* server count — the
        paper's observation that CC-a "has significantly higher
        resizing frequency" is this number."""
        ideal = np.ceil(self.load / per_server_bw)
        return float(np.abs(np.diff(ideal)).mean())

    # ------------------------------------------------------------------
    def window(self, start_s: float, duration_s: float) -> "LoadTrace":
        """A sub-trace (the figures plot a ~250-minute window)."""
        i0 = int(start_s / self.dt)
        i1 = i0 + max(1, int(round(duration_s / self.dt)))
        if i0 < 0 or i1 > self.load.size:
            raise ValueError("window out of range")
        return LoadTrace(self.load[i0:i1].copy(), self.dt,
                         self.write_fraction, f"{self.name}[window]")

    def scaled_to_total(self, bytes_processed: float) -> "LoadTrace":
        """Rescale so the integral matches a target volume (used to pin
        synthetic traces to Table I's bytes-processed column)."""
        cur = self.total_bytes
        if cur <= 0:
            raise ValueError("cannot scale an all-zero trace")
        return LoadTrace(self.load * (bytes_processed / cur), self.dt,
                         self.write_fraction, self.name)
