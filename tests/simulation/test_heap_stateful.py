"""Generated: the simulator's heap entries against a sorted list.

A scheduled event is its heap entry ``[time, seq, fn, args]``;
``Simulator.cancel`` takes the entry ``schedule_at`` returned.  A
Hypothesis state machine interleaves ``schedule_at``, ``cancel`` (of a
live event, of one that already fired, of one already cancelled),
``step`` and ``run_until`` on a simulator and on a model — every entry
not yet popped, in a list sorted by ``(time, seq)``, and the set of
cancelled seqs.  The model pops the way the drain is documented to:
a cancelled entry is discarded and counted whenever it reaches the
front, a live one fires if it is due.  After every step the two must
agree on the fire order, the clock, ``pending`` and the
``engine.events`` / ``engine.cancelled`` / ``engine.scheduled``
counters.
"""

import bisect
import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.obs import OBS
from repro.simulation.engine import Simulator

DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5])


class HeapAgainstSortedList(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        OBS.reset()
        self.sim = Simulator()
        self.handles = []           # schedule_at's return, by seq
        self.fired = []             # seqs, as the simulator fired them
        # -- the model ------------------------------------------------
        self.queue = []             # (time, seq) of every unpopped entry
        self.cancelled = set()      # seqs cancelled before firing
        self.done = set()           # seqs fired
        self.order = []             # seqs, in the model's fire order
        self.now = 0.0
        self.popped_cancelled = 0

    def teardown(self):
        OBS.reset()

    def drain(self, limit, once=False):
        """The model of ``Simulator._drain``; whether anything fired."""
        fired = False
        while self.queue:
            t, seq = self.queue[0]
            if seq in self.cancelled:
                self.queue.pop(0)
                self.popped_cancelled += 1
                continue
            if t > limit:
                break
            self.queue.pop(0)
            self.now = t
            self.done.add(seq)
            self.order.append(seq)
            fired = True
            if once:
                break
        return fired

    # ------------------------------------------------------------------
    @rule(delay=DELAYS)
    def schedule_at(self, delay):
        seq = len(self.handles)
        t = self.sim.now + delay
        self.handles.append(self.sim.schedule_at(t, self.fired.append, seq))
        bisect.insort(self.queue, (t, seq))

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(0, 10 ** 6))
    def cancel(self, pick):
        seq = pick % len(self.handles)
        self.sim.cancel(self.handles[seq])
        if seq not in self.done:
            self.cancelled.add(seq)

    @rule()
    def step(self):
        assert self.sim.step() == self.drain(math.inf, once=True)

    @rule(delay=DELAYS)
    def run_until(self, delay):
        limit = self.sim.now + delay
        self.sim.run_until(limit)
        self.drain(limit)
        self.now = limit

    # ------------------------------------------------------------------
    @invariant()
    def agrees_with_the_model(self):
        assert self.fired == self.order
        assert self.sim.now == self.now
        live = [seq for _t, seq in self.queue if seq not in self.cancelled]
        assert self.sim.pending == len(live)
        counters = OBS.metrics.snapshot()
        assert counters.get("engine.events", 0) == len(self.order)
        assert counters.get("engine.cancelled", 0) == self.popped_cancelled
        assert counters["engine.scheduled"] == len(self.handles)


HeapAgainstSortedList.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None)
TestHeapAgainstSortedList = HeapAgainstSortedList.TestCase
