"""Measurement helpers: time series, distribution statistics, and
ASCII reporting for the benchmark harness."""

from repro.metrics.timeline import StepSeries
from repro.metrics.distribution import shape_correlation
from repro.metrics.proportionality import (
    holder_groups,
    proportionality_curve,
    read_capacity,
)
from repro.metrics.report import render_table, render_series

__all__ = [
    "StepSeries",
    "shape_correlation",
    "holder_groups",
    "proportionality_curve",
    "read_capacity",
    "render_table",
    "render_series",
]
