"""Trace-file statistics: the one pass every trace reader renders
(:class:`TraceSummary`) and the renderer behind ``repro stats``.

A JSONL trace is a flat stream of ``{"kind", "t", ...}`` events;
``repro stats`` aggregates it into the two tables an engineer reaches
for first:

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.report import render_table
from repro.obs.trace import TraceEvent, read_jsonl

__all__ = [
    "TraceSummary",
    "SpanRecord",
    "MILESTONE_KINDS",
    "render_trace_stats",
    "check_window",
    "in_window",
    "event_in_window",
    "is_number",
    "percentile",
]


def is_number(value: object) -> bool:
    """Is *value* a usable number in a JSON document (analytics, bench
    or profile)?  Excludes ``bool`` explicitly: ``True`` is an ``int``
    in Python.  Trace fields need no such guard — they are checked at
    parse (:func:`repro.obs.trace.check_event`)."""
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

    Raises :class:`ValueError` when a bound is NaN (it compares false
    with every time, so it read as no bound at all) or the window is
    inverted — silently matching nothing has masked more than one
    typo'd command line.
    """
    for flag, bound in (("--since", since), ("--until", until)):
        if bound is not None and math.isnan(bound):
            raise ValueError(f"{flag} must be a number (got nan)")
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
    Either bound may be ``None`` (unbounded on that side).  A *t* of
    ``None`` is outside every bounded window; with both bounds ``None``
    everything passes.

    Every windowing surface (``repro stats`` / ``report`` /
    ``timeline``, the sweep runner) routes through this function —
    do not re-implement the comparison.
    """
    if since is None and until is None:
        return True
    if t is None:
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


#: Point events the run report's lifecycle timeline lists.
MILESTONE_KINDS = (
    "power.resize",
    "version.advance",
    "server.fail",
    "migration.full",
    "migration.addition",
    "recovery.rereplicate",
)


class SpanRecord:
    """One reconstructed span: its begin event joined with its end."""

    __slots__ = ("name", "span_id", "parent_id", "t_begin", "t_end",
                 "duration")

    def __init__(self, name: str, span_id: object,
                 parent_id: object, t_begin: Optional[float]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_begin = t_begin
        self.t_end: Optional[float] = None
        self.duration: Optional[float] = None

    @property
    def open(self) -> bool:
        return self.t_end is None


def _float(v: object) -> Optional[float]:
    return None if v is None else float(v)  # type: ignore[arg-type]


class TraceSummary:
    """One pass over the events of a trace in the half-open window
    ``[since, until)`` — what ``repro stats``, ``report`` and
    ``timeline`` render.  The events' fields are trusted to have
    their :data:`~repro.obs.trace.FIELDS` types (parsed traces are
    checked by :func:`~repro.obs.trace.iter_jsonl`).

    * ``events`` — the windowed events, in stream order;
    * ``kinds`` — kind -> ``[count, first t, last t, bytes, duration]``
      (bytes: ``nbytes``, else ``flow.start``'s ``total_bytes``);
    * ``spans`` — ``span.begin``/``span.end`` paired by ``span_id``, in
      begin order (an end without a begin is ignored, a begin without
      an end stays open);
    * ``bytes_in`` — ``"migration"`` / ``"recovery"`` / ``"addition"``
      -> rank -> bytes in (a ``migration.move`` splits its bytes
      evenly over its ``to`` ranks), and ``inflows``, the same credits
      as ``(t, rank, bytes)`` in stream order;
    * ``milestones`` — the :data:`MILESTONE_KINDS` events.
    """

    def __init__(self, events: Sequence[TraceEvent],
                 since: Optional[float] = None,
                 until: Optional[float] = None) -> None:
        check_window(since, until)
        if since is not None or until is not None:
            events = [e for e in events
                      if event_in_window(e, since, until)]
        self.events = events
        self.kinds: Dict[str, List] = {}
        self.spans: List[SpanRecord] = []
        self.bytes_in: Dict[str, Dict[object, float]] = {
            "migration": {}, "recovery": {}, "addition": {}}
        self.inflows: List[Tuple[Optional[float], object, float]] = []
        self.milestones: List[TraceEvent] = []
        by_id: Dict[object, SpanRecord] = {}
        for ev in events:
            kind = str(ev.get("kind", "?"))
            t = ev.get("t")
            row = self.kinds.get(kind)
            if row is None:
                row = self.kinds[kind] = [0, None, None, 0.0, 0.0]
            row[0] += 1
            if t is not None:
                if row[1] is None or t < row[1]:
                    row[1] = float(t)
                if row[2] is None or t > row[2]:
                    row[2] = float(t)
            nbytes = ev.get("nbytes")
            volume = ev.get("total_bytes") if nbytes is None else nbytes
            if volume is not None:
                row[3] += volume
            duration = ev.get("duration")
            if duration is not None:
                row[4] += duration
            if kind in MILESTONE_KINDS:
                self.milestones.append(ev)
            if kind == "span.begin":
                rec = SpanRecord(str(ev.get("name", "?")), ev.get("span_id"),
                                 ev.get("parent_id"), _float(t))
                by_id[rec.span_id] = rec
                self.spans.append(rec)
            elif kind == "span.end":
                rec = by_id.get(ev.get("span_id"))
                if rec is not None and rec.open:
                    rec.t_end = _float(t)
                    rec.duration = _float(duration)
            elif kind == "migration.move":
                targets = ev.get("to")
                if targets:
                    per = (nbytes or 0.0) / len(targets)
                    for rank in targets:
                        self._credit("migration", t, rank, per)
            elif kind == "recovery.rereplicate":
                self._credit("recovery", t, ev.get("rank"), nbytes or 0.0)
            elif kind == "migration.addition":
                self._credit("addition", t, ev.get("rank"), nbytes or 0.0)

    def _credit(self, column: str, t: object, rank: object,
                nbytes: float) -> None:
        into = self.bytes_in[column]
        into[rank] = into.get(rank, 0.0) + nbytes
        self.inflows.append((t, rank, nbytes))  # type: ignore[arg-type]

    def extent(self, kinds: Optional[Iterable[str]] = None
               ) -> Tuple[Optional[float], Optional[float]]:
        """``(first t, last t)`` over *kinds* (default: every kind);
        ``(None, None)`` when none of their events has a ``t``."""
        rows = [self.kinds[k] for k in (self.kinds if kinds is None
                                        else kinds)]
        firsts = [r[1] for r in rows if r[1] is not None]
        if not firsts:
            return None, None
        return min(firsts), max(r[2] for r in rows if r[2] is not None)

    def span_durations(self) -> Dict[str, List[float]]:
        """Span name -> ascending durations of its closed spans."""
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            if not s.open and s.duration is not None:
                out.setdefault(s.name, []).append(s.duration)
        for durations in out.values():
            durations.sort()
        return out


def render_trace_stats(path: str, kind: Optional[str] = None,
                       since: Optional[float] = None,
                       until: Optional[float] = None,
                       top: Optional[int] = None) -> str:
    """The ``repro stats`` report for one JSONL trace file.

    *kind* restricts the per-kind table to kinds equal to it or, with a
    trailing dot, sharing its prefix (``migration.``).  *since* /
    *until* keep only events whose simulation time falls in the
    half-open window ``[since, until)`` — see :func:`in_window`
    (events without a ``t`` are dropped by either bound; an inverted
    window raises :class:`ValueError`).  *top* sorts the kinds by byte
    total descending and keeps the first N (default: every kind,
    name-sorted).  The title's event count and time extent are those of
    the kinds *kind* keeps.
    """
    check_window(since, until)
    summary = TraceSummary(read_jsonl(path), since, until)
    kinds = sorted(k for k in summary.kinds
                   if kind is None or k == kind
                   or (kind.endswith(".") and k.startswith(kind)))
    if not kinds:
        return f"{path}: no matching trace events"
    total = sum(summary.kinds[k][0] for k in kinds)
    t_min, t_max = summary.extent(kinds)
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
    span = ("" if t_min is None else f", t = [{t_min:g}, {t_max:g}] s")
    return render_table(
        ["kind", "events", "first t(s)", "last t(s)", "GB", "dur(s)"],
        rows, title=f"{path}: {total} events{span}")
