"""Trace-file statistics: the renderer behind ``repro stats``.

A JSONL trace is a flat stream of ``{"kind", "t", ...}`` events; this
module aggregates it into the two tables an engineer reaches for first:

* per-kind counts with time extents (what happened, when);
* byte totals for the traffic-carrying kinds and duration totals for
  span ends (how much moved, how long it took) — the quantities
  Figures 3/7 and Table II are built from.

``repro stats`` exposes the filters directly: ``--kind`` restricts by
event kind, ``--since``/``--until`` window on simulation time, and
``--top N`` keeps only the N kinds moving the most bytes.

Time windows are **half-open**: ``[since, until)`` keeps events with
``since <= t < until``.  Every windowing surface — ``repro stats``,
``repro report``, ``repro timeline``, the sweep runner's
``events_in_window`` — goes through the same :func:`in_window`
predicate, so adjacent windows (``[0, 60)``, ``[60, 120)``) partition
a trace without double-counting boundary events.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.metrics.report import render_table
from repro.obs.trace import TraceEvent, read_jsonl

__all__ = [
    "TraceSummary",
    "summarize_trace",
    "render_trace_stats",
    "check_window",
    "in_window",
    "event_in_window",
    "is_number",
    "percentile",
]


def is_number(value: object) -> bool:
    """Is *value* a usable numeric field (timestamp, byte count,
    duration)?  Excludes ``bool`` explicitly: ``True`` is an ``int``
    in Python, so a malformed trace with ``"t": true`` would otherwise
    slip through the window filter as ``t == 1``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending-sorted sequence.

    ``rank = ceil(q * N)`` (floored at 1) — no interpolation, so the
    result is always an observed value and bit-identical across
    platforms.  Raises :class:`ValueError` on an empty sequence or a
    quantile outside ``(0, 1]``.
    """
    if not sorted_vals:
        raise ValueError("percentile of empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q!r}")
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


def check_window(since: Optional[float], until: Optional[float]) -> None:
    """Validate a half-open ``[since, until)`` simulation-time window.

    Raises :class:`ValueError` when the window is inverted — silently
    matching nothing has masked more than one typo'd command line.
    """
    if since is not None and until is not None and since > until:
        raise ValueError(
            f"empty time window: --since {since:g} is after "
            f"--until {until:g} (since must be <= until)")


def in_window(t: object, since: Optional[float],
              until: Optional[float]) -> bool:
    """The one window predicate: is timestamp *t* inside the half-open
    window ``[since, until)``?

    ``since <= t < until`` — the *until* bound is **exclusive**, so
    adjacent windows partition a trace with no event counted twice.
    Either bound may be ``None`` (unbounded on that side).  A
    non-numeric *t* (including ``bool``) is outside every bounded
    window; with both bounds ``None`` everything passes.

    Every windowing surface (``repro stats`` / ``report`` /
    ``timeline``, the sweep runner) routes through this function —
    do not re-implement the comparison.
    """
    if since is None and until is None:
        return True
    if not is_number(t):
        return False
    if since is not None and t < since:      # type: ignore[operator]
        return False
    if until is not None and t >= until:     # type: ignore[operator]
        return False
    return True


def event_in_window(event: TraceEvent, since: Optional[float],
                    until: Optional[float]) -> bool:
    """:func:`in_window` applied to an event's ``t`` field."""
    return in_window(event.get("t"), since, until)


#: Event fields that carry a byte volume, in display priority order.
_BYTE_FIELDS = ("nbytes", "bytes", "total_bytes", "bytes_migrated")

#: Event fields that carry a simulated-seconds interval (``span.end``'s
#: payload) — aggregated separately from bytes, never conflated.
_DURATION_FIELDS = ("duration",)


class TraceSummary:
    """Aggregated view of one trace."""

    def __init__(self) -> None:
        self.total_events = 0
        self.t_min: Optional[float] = None
        self.t_max: Optional[float] = None
        #: kind -> [count, t_first, t_last, byte_total, duration_total]
        self.kinds: Dict[str, List] = {}

    def add(self, event: TraceEvent) -> None:
        self.total_events += 1
        kind = str(event.get("kind", "?"))
        t = event.get("t")
        row = self.kinds.get(kind)
        if row is None:
            row = [0, None, None, 0.0, 0.0]
            self.kinds[kind] = row
        row[0] += 1
        if is_number(t):
            if self.t_min is None or t < self.t_min:
                self.t_min = float(t)
            if self.t_max is None or t > self.t_max:
                self.t_max = float(t)
            if row[1] is None or t < row[1]:
                row[1] = float(t)
            if row[2] is None or t > row[2]:
                row[2] = float(t)
        for field in _BYTE_FIELDS:
            v = event.get(field)
            if is_number(v):
                row[3] += float(v)
                break
        for field in _DURATION_FIELDS:
            v = event.get(field)
            if is_number(v):
                row[4] += float(v)
                break


def summarize_trace(events: Sequence[TraceEvent]) -> TraceSummary:
    summary = TraceSummary()
    for ev in events:
        summary.add(ev)
    return summary


def render_trace_stats(path: str, kind: Optional[str] = None,
                       since: Optional[float] = None,
                       until: Optional[float] = None,
                       top: Optional[int] = None) -> str:
    """The ``repro stats`` report for one JSONL trace file.

    *kind* restricts the per-kind table to kinds equal to it or, with a
    trailing dot, sharing its prefix (``migration.``).  *since* /
    *until* keep only events whose simulation time falls in the
    half-open window ``[since, until)`` — see :func:`in_window`
    (events without a numeric ``t`` are dropped by either bound; an
    inverted window raises :class:`ValueError`).  *top* sorts the
    kinds by byte total descending and keeps the first N (default:
    every kind, name-sorted).
    """
    check_window(since, until)
    events = read_jsonl(path)
    if kind is not None:
        if kind.endswith("."):
            events = [e for e in events
                      if str(e.get("kind", "")).startswith(kind)]
        else:
            events = [e for e in events if e.get("kind") == kind]
    if since is not None or until is not None:
        events = [e for e in events if event_in_window(e, since, until)]
    summary = summarize_trace(events)
    if summary.total_events == 0:
        return f"{path}: no matching trace events"

    kinds = sorted(summary.kinds)
    if top is not None:
        if top < 1:
            raise ValueError("--top must be >= 1")
        # Fully deterministic ranking: byte total desc, then event
        # count desc, then name — kinds tying on every stat always
        # appear in the same order regardless of arrival order.
        kinds = sorted(kinds, key=lambda k: (-summary.kinds[k][3],
                                             -summary.kinds[k][0], k))
        kinds = kinds[:top]
    rows = []
    for k in kinds:
        count, t0, t1, nbytes, dur = summary.kinds[k]
        rows.append([
            k, count,
            "-" if t0 is None else round(t0, 3),
            "-" if t1 is None else round(t1, 3),
            "-" if nbytes == 0 else f"{nbytes / 1e9:.3f}",
            "-" if dur == 0 else f"{dur:.3f}",
        ])
    span = ("" if summary.t_min is None else
            f", t = [{summary.t_min:g}, {summary.t_max:g}] s")
    return render_table(
        ["kind", "events", "first t(s)", "last t(s)", "GB", "dur(s)"],
        rows,
        title=f"{path}: {summary.total_events} events{span}")
