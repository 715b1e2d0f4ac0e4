"""Spans: lifecycle tracing over the flat event bus.

The trace bus records *points* — a flow started, an object moved.  The
paper's headline claims are about *intervals*: how long a resize cycle
takes to drain its re-integration debt (Fig. 2), how long migration
traffic competes with the foreground (Figs. 3/7).  A :class:`Span`
connects the two: a ``span.begin``/``span.end`` event pair sharing a
``span_id``, with optional parent linkage, emitted through the same
:class:`~repro.obs.trace.TraceBus` so spans ride in the same JSONL
trace (and inherit its byte-for-byte determinism — ids come from a
per-runtime counter, times from the simulation clock, never from wall
clock).

Span names are dotted like event kinds; the instrumented lifecycles:

============================ =========================================
span name                    interval
============================ =========================================
``flow``                     flow admitted → drained / cancelled
``resize``                   one power-state change (instant; carries
                             the membership delta)
``resize.cycle``             size-up version advance → re-integration
                             drained (cluster state caught up)
``reintegration.pass``       one Algorithm-2 scan over the dirty table
``reintegration.full``       one "primary+full" blanket re-copy
``recovery.fail``            server crash → losses re-replicated
``recovery.departure``       baseline departure → re-replicated
``migration.addition``       baseline re-add → data pulled onto it
============================ =========================================

Usage::

    span = OBS.spans.begin("resize.cycle", version=4)
    ...                      # any number of events / child spans
    span.end(status="drained")

or, for well-nested intervals, ``with OBS.spans.span("name"): ...``,
which ends the span ``completed``, or ``failed`` when the body raises
(the harnesses' ``chaos.run`` / ``serve.run`` / ``kvchurn.run``).

Handles are always allocated (the counter is cheap and none of the
instrumented lifecycles is per-object hot); the *events* are emitted
only while the bus has a sink, mirroring every other producer.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.trace import TraceBus

__all__ = ["Span", "SpanTracker"]


class Span:
    """One open (or closed) interval.  Created by
    :meth:`SpanTracker.begin`; close it exactly once with :meth:`end`.
    """

    __slots__ = ("name", "span_id", "parent_id", "t_begin", "closed",
                 "_tracker")

    def __init__(self, tracker: "SpanTracker", name: str, span_id: int,
                 parent_id: Optional[int], t_begin: float) -> None:
        self._tracker = tracker
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_begin = t_begin
        self.closed = False

    def end(self, t: Optional[float] = None, **fields: object) -> float:
        """Close the span, emitting ``span.end`` with the sim-time
        ``duration``.  Idempotent (a second call is a no-op) so
        drain-on-exit cleanup can't double-close.  Returns the
        duration."""
        if self.closed:
            return 0.0
        self.closed = True
        bus = self._tracker.bus
        t_end = bus.clock if t is None else t
        duration = max(0.0, t_end - self.t_begin)
        if bus.active:
            bus.emit("span.end", t=t_end, name=self.name,
                     span_id=self.span_id, duration=duration, **fields)
        return duration

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.end(status="completed" if exc_type is None else "failed")

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, {state})")


class SpanTracker:
    """Allocates span ids and emits the begin/end events.

    Ids are sequential per runtime (reset with
    :meth:`repro.obs.runtime.Runtime.reset`), so two identically
    seeded runs allocate identical ids and the traces stay
    byte-identical.
    """

    __slots__ = ("bus", "_next_id")

    def __init__(self, bus: TraceBus) -> None:
        self.bus = bus
        self._next_id = 1

    def begin(self, name: str, parent: Optional[Span] = None,
              t: Optional[float] = None, **fields: object) -> Span:
        """Open a span named *name*, optionally parented to an existing
        span (open or closed — a child may outlive its parent's close,
        e.g. a migration flow spawned by an already-drained resize
        cycle)."""
        span_id = self._next_id
        self._next_id += 1
        bus = self.bus
        t_begin = bus.clock if t is None else t
        parent_id = parent.span_id if parent is not None else None
        span = Span(self, name, span_id, parent_id, t_begin)
        if bus.active:
            if parent_id is None:
                bus.emit("span.begin", t=t_begin, name=name,
                         span_id=span_id, **fields)
            else:
                bus.emit("span.begin", t=t_begin, name=name,
                         span_id=span_id, parent_id=parent_id, **fields)
        return span

    def span(self, name: str, parent: Optional[Span] = None,
             **fields: object) -> Span:
        """``with OBS.spans.span("x"): ...`` — begin now, end on exit
        ``completed`` (``failed`` if the body raises)."""
        return self.begin(name, parent=parent, **fields)

    def reset(self) -> None:
        self._next_id = 1
