"""Step-function time series.

Active-server counts (Figures 2, 8, 9) and throughput samples
(Figures 3, 7) are step-wise constant signals; :class:`StepSeries`
stores them as parallel arrays and provides the integral and sampling
operations the machine-hour accounting and the plots need.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["StepSeries"]


class StepSeries:
    """``value[i]`` holds from ``time[i]`` until ``time[i+1]``.

    Times must be strictly increasing.  :meth:`append` coalesces a
    repeated value into the previous breakpoint.
    """

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, t: float, value: float) -> None:
        """Add a sample.  A value equal to the previous one keeps the
        existing breakpoint: step functions only change on change."""
        if self._times and t <= self._times[-1]:
            raise ValueError(
                f"times must be strictly increasing: {t} <= {self._times[-1]}")
        if self._values and self._values[-1] == value:
            return
        self._times.append(float(t))
        self._values.append(float(value))

    def value_at(self, t: float) -> float:
        """The step value in effect at time *t* (before the first
        breakpoint the first value is assumed)."""
        if not self._times:
            raise ValueError("empty series")
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return self._values[max(0, idx)]

    # ------------------------------------------------------------------
    def integral(self, t0: float, t1: float) -> float:
        """∫ value dt over [t0, t1] — machine-seconds when the value is
        an active-server count."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if not self._times:
            raise ValueError("empty series")
        total = 0.0
        ts = self._times
        vs = self._values
        n = len(ts)
        for i in range(n):
            seg_start = ts[i]
            seg_end = ts[i + 1] if i + 1 < n else t1
            lo = max(seg_start, t0)
            hi = min(seg_end, t1)
            if hi > lo:
                total += vs[i] * (hi - lo)
        # Before the first breakpoint, extend the first value backwards.
        if t0 < ts[0]:
            total += vs[0] * (min(t1, ts[0]) - t0)
        return total

    def sample(self, grid: Iterable[float]) -> np.ndarray:
        """Values at each grid point (for aligned comparison of two
        series)."""
        return np.array([self.value_at(t) for t in grid])

    def points(self) -> List[Tuple[float, float]]:
        """The breakpoints as ``(time, value)`` pairs."""
        return list(zip(self._times, self._values))
