"""Test oracle: the event loop as it was before the one drain body.

``Simulator.step``, ``run`` and ``run_until`` now share one private
drain loop that pops each event once, sums the ``engine.*`` counters
locally and skips an untaken ``engine.event`` with ``bus.takes``.
This is the loop they replaced — ``run_until`` as ``peek_time()`` then
``step()`` per event, a counter call and a ``bus.active`` read per
event — kept only so the differential tests can show the two fire the
same events in the same order with the same counters and trace.

Two changes from the old bodies: ``peek_time`` counts the cancelled
events it discards in ``engine.cancelled``, as ``step`` always did
(before, ``run()`` counted a cancelled event and ``run_until()`` did
not); and both read the heap's ``[time, seq, fn, args]`` entries, a
``None`` callback marking a cancelled or fired event, where they read
the ``Event`` objects the heap used to hold.
"""

import heapq
from typing import Optional

from repro.obs import OBS
from repro.simulation.engine import Simulator, event_label


def peek_time(sim: Simulator) -> Optional[float]:
    heap = sim._heap
    while heap and heap[0][2] is None:
        heapq.heappop(heap)
        OBS.metrics.inc("engine.cancelled")
    return heap[0][0] if heap else None


def step(sim: Simulator) -> bool:
    while sim._heap:
        entry = heapq.heappop(sim._heap)
        t, seq, fn, args = entry
        if fn is None:
            OBS.metrics.inc("engine.cancelled")
            continue
        sim._live -= 1
        entry[2] = None
        sim.now = t
        sim._events_counter.inc()
        bus = OBS.bus
        if bus.active:
            bus.clock = t
            bus.emit("engine.event", t=t, seq=seq, fn=event_label(fn))
        fn(*args)
        return True
    return False


def run(sim: Simulator) -> None:
    while step(sim):
        pass


def run_until(sim: Simulator, t: float) -> None:
    if t < sim.now:
        raise ValueError(f"cannot run backwards to {t}")
    while True:
        nxt = peek_time(sim)
        if nxt is None or nxt > t:
            break
        step(sim)
    sim.now = t
    bus = OBS.bus
    if bus.active:
        bus.clock = t
        bus.emit("engine.clock", t=t, pending=sim.pending)
