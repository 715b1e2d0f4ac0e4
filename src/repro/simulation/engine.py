"""A minimal deterministic discrete-event simulation core.

Nothing storage-specific lives here: just a clock, a priority queue of
events, cancellation, and a periodic-callback helper.

Determinism contract: events execute in the total order
``(time, seq)`` where ``seq`` is a monotonically increasing sequence
number assigned at scheduling.  Two events scheduled for the same
instant therefore fire in insertion order — documented behaviour, not
a heap accident — so thousands of clients scheduling same-timestamp
arrivals and completions replay bit-for-bit regardless of heap
internals.  Scheduling times must be finite: a NaN compares false
against everything, which would silently corrupt the heap's ordering,
so non-finite times are rejected at :meth:`Simulator.schedule_at`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.runtime import OBS

__all__ = ["Event", "Simulator", "event_label"]


def event_label(fn: Callable[..., Any]) -> str:
    """An event callback's name in the ``engine.event`` trace field and
    the profiler's ``engine:<label>`` frame: its ``__qualname__``, or
    its ``repr`` when it has none (e.g. a ``functools.partial``)."""
    label = getattr(fn, "__qualname__", None)
    return repr(fn) if label is None else label


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`
    so callers can :meth:`cancel` it."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int,
                 fn: Callable[..., Any], args: tuple,
                 sim: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (O(1); the heap entry is
        skipped lazily when popped).  Idempotent — a double cancel
        must not decrement the owning simulator's live count twice."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1


class Simulator:
    """The event loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(5.0, hits.append, "a")
    >>> _ = sim.schedule(2.0, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        #: ``(time, seq, event)`` entries: seq is unique, so the heap
        #: orders by the documented key in C and never compares events.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        #: Live (scheduled, not yet fired or cancelled) event count —
        #: kept exact on schedule/cancel/pop so :attr:`pending` is O(1)
        #: instead of an O(heap) scan per call (it is consulted on
        #: every ``engine.clock`` emit).
        self._live = 0
        self._events_counter = OBS.metrics.counter("engine.events")
        self._sched_counter = OBS.metrics.counter("engine.scheduled")

    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``fn(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, t: float, fn: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute time *t* (>= now, finite).

        Same-instant events fire in scheduling order — the documented
        ``(time, seq)`` total order of the module docstring."""
        if not math.isfinite(t):
            # NaN would pass the `< now` guard (NaN comparisons are
            # all false) and then violate the heap's strict weak
            # ordering — corrupting event order nondeterministically.
            raise ValueError(f"cannot schedule at non-finite time {t!r}")
        if t < self.now:
            raise ValueError(f"cannot schedule at {t} < now={self.now}")
        ev = Event(t, next(self._seq), fn, args, sim=self)
        heapq.heappush(self._heap, (t, ev.seq, ev))
        self._live += 1
        self._sched_counter.inc()
        return ev

    def every(self, interval: float, fn: Callable[..., Any],
              *args: Any, until: Optional[float] = None) -> Event:
        """Periodic callback every *interval* seconds, first firing one
        interval from now, stopping after *until* (inclusive).  Returns
        the first event: cancelling it stops the chain only before the
        first firing, since each firing schedules a new event that no
        caller holds.  A running chain stops via *until* or by *fn*
        raising ``StopIteration``.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            try:
                fn(*args)
            except StopIteration:
                return
            nxt = self.now + interval
            if until is None or nxt <= until:
                self.schedule_at(nxt, tick)

        return self.schedule(interval, tick)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Live-event count, maintained incrementally (O(1))."""
        return self._live

    def clear(self) -> int:
        """Cancel every pending event (teardown / preemption of a whole
        schedule, e.g. abandoning an armed fault plan).  Returns how
        many live events were cancelled."""
        cancelled = 0
        for _t, _seq, ev in self._heap:
            if not ev.cancelled:
                ev.cancel()
                cancelled += 1
        return cancelled

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            OBS.metrics.inc("engine.cancelled")
        return self._heap[0][0] if self._heap else None

    def _drain(self, limit: float, once: bool = False) -> bool:
        """Fire the live events due by *limit* (only the first with
        *once*) in ``(time, seq)`` order; returns whether any fired.
        The ``engine.*`` counts are added once, even if a handler raises."""
        heap = self._heap
        pop = heapq.heappop
        bus = OBS.bus
        fired = cancelled = 0
        try:
            while heap:
                entry = pop(heap)
                ev = entry[2]
                if ev.cancelled:
                    cancelled += 1
                    continue
                t = entry[0]
                if t > limit:
                    heapq.heappush(heap, entry)
                    break
                self._live -= 1
                ev._sim = None      # a late cancel() must not decrement again
                self.now = t
                fired += 1
                if bus.sinks:
                    bus.clock = t
                    if bus.takes("engine.event"):
                        bus.emit("engine.event", t=t, seq=entry[1],
                                 fn=event_label(ev.fn))
                ev.fn(*ev.args)
                if once:
                    break
        finally:
            if fired:
                self._events_counter.inc(fired)
            if cancelled:
                OBS.metrics.inc("engine.cancelled", cancelled)
        return fired > 0

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is
        empty."""
        return self._drain(math.inf, once=True)

    def run(self) -> None:
        """Drain the event queue a :meth:`step` at a time: no harness
        calls it, and ``benchmarks/e2e`` times the loop through ``step``."""
        while self.step():
            pass

    def run_until(self, t: float) -> None:
        """Execute events up to and including time *t* (finite), then
        set the clock to *t*."""
        if not math.isfinite(t):
            raise ValueError(f"cannot run until non-finite time {t!r}")
        if t < self.now:
            raise ValueError(f"cannot run backwards to {t}")
        self._drain(t)
        self.now = t
        bus = OBS.bus
        if bus.active:
            bus.clock = t
            bus.emit("engine.clock", t=t, pending=self.pending)
