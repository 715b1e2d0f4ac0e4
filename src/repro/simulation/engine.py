"""A minimal deterministic discrete-event simulation core.

Nothing storage-specific lives here: just a clock, a priority queue of
events and cancellation.

Determinism contract: events execute in the total order
``(time, seq)`` where ``seq`` is a monotonically increasing sequence
number assigned at scheduling.  Two events scheduled for the same
instant therefore fire in insertion order — documented behaviour, not
a heap accident — so thousands of clients scheduling same-timestamp
arrivals and completions replay bit-for-bit regardless of heap
internals.  Scheduling times must be finite: a NaN compares false
against everything, which would silently corrupt the heap's ordering,
so non-finite times are rejected at :meth:`Simulator.schedule_at`.

A scheduled event is its heap entry: the list ``[time, seq, fn,
args]``, which is also the handle :meth:`Simulator.cancel` takes.  The
heap orders entries by ``(time, seq)`` in C and, ``seq`` being unique,
never compares further; ``fn`` is ``None`` once the event has fired
or been cancelled.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List

from repro.obs.runtime import OBS

__all__ = ["Simulator", "event_label"]


def event_label(fn: Callable[..., Any]) -> str:
    """An event callback's name in the ``engine.event`` trace field and
    the profiler's ``engine:<label>`` frame: its ``__qualname__``, or
    its ``repr`` when it has none (e.g. a ``functools.partial``)."""
    label = getattr(fn, "__qualname__", None)
    return repr(fn) if label is None else label


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

    def __init__(self) -> None:
        self.now = 0.0
        #: ``[time, seq, fn, args]`` entries (see the module docstring).
        self._heap: List[list] = []
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
                 *args: Any) -> list:
        """Run ``fn(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, t: float, fn: Callable[..., Any],
                    *args: Any) -> list:
        """Run ``fn(*args)`` at absolute time *t* (>= now, finite);
        returns the event's heap entry, the handle :meth:`cancel` takes.

        Same-instant events fire in scheduling order — the documented
        ``(time, seq)`` total order of the module docstring."""
        if not self.now <= t < math.inf:
            # NaN fails every comparison, so it lands here too rather
            # than in the heap, whose strict weak ordering it would
            # break — corrupting event order nondeterministically.
            if not math.isfinite(t):
                raise ValueError(f"cannot schedule at non-finite time {t!r}")
            raise ValueError(f"cannot schedule at {t} < now={self.now}")
        entry = [t, next(self._seq), fn, args]
        heapq.heappush(self._heap, entry)
        self._live += 1
        self._sched_counter.value += 1
        return entry

    def cancel(self, entry: list) -> None:
        """Keep a scheduled event from firing (O(1): its heap entry is
        skipped when popped).  Idempotent, and a no-op once the event
        has fired, so :attr:`pending` never counts an event twice."""
        if entry[2] is not None:
            entry[2] = None
            self._live -= 1

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Live-event count, maintained incrementally (O(1))."""
        return self._live

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
                t, seq, fn, args = entry
                if fn is None:
                    cancelled += 1
                    continue
                if t > limit:
                    heapq.heappush(heap, entry)
                    break
                entry[2] = None     # fired: a late cancel does nothing
                self._live -= 1
                self.now = t
                fired += 1
                if bus.active:
                    bus.clock = t
                    if bus.takers.get("engine.event", bus.every):
                        bus.emit("engine.event", t=t, seq=seq,
                                 fn=event_label(fn))
                    else:
                        bus.ordinal += 1    # counted as takes() would
                fn(*args)
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
