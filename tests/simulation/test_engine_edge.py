"""Additional engine edge cases surfaced while building the drivers."""

import functools

import pytest

from repro.obs import OBS, Profiler
from repro.simulation.engine import Simulator


class TestReentrancy:
    def test_callback_scheduling_at_now(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(0.0, log.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]
        assert sim.now == 1.0

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, sim.cancel, later)
        sim.run()
        assert fired == []

    def test_run_until_then_schedule(self):
        sim = Simulator()
        sim.run_until(10.0)
        fired = []
        sim.schedule(1.0, fired.append, True)
        sim.run()
        assert fired == [True]
        assert sim.now == 11.0


class TestPendingCounter:
    """The O(1) live-event counter must track a naive heap scan
    through every schedule / cancel / step / clear interleaving."""

    @staticmethod
    def naive_pending(sim):
        return sum(1 for _t, _seq, fn, _args in sim._heap
                   if fn is not None)

    def test_counter_matches_scan_under_random_ops(self):
        import random
        rng = random.Random(0xE17)
        sim = Simulator()
        events = []
        for _ in range(600):
            op = rng.random()
            if op < 0.45 or not events:
                events.append(sim.schedule(rng.uniform(0.0, 10.0),
                                           lambda: None))
            elif op < 0.70:
                sim.cancel(rng.choice(events))
            elif op < 0.95:
                sim.step()
            else:
                for ev in events:
                    sim.cancel(ev)
            assert sim.pending == self.naive_pending(sim)
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        assert sim.pending == 1
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        sim.cancel(ev)
        assert sim.pending == 0


class TestClockDiscipline:
    def test_now_is_event_time_inside_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_run_until_sets_clock_even_without_events(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_many_same_time_events_ordered(self):
        sim = Simulator()
        log = []
        for i in range(50):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == list(range(50))


class TestHeapEntries:
    """An event is its heap entry ``[time, seq, fn, args]``: ordered in
    C by the documented key, callbacks never compared."""

    def test_events_define_no_ordering(self):
        sim = Simulator()
        a, b = sim.schedule_at(1.0, print), sim.schedule_at(1.0, print)
        assert a == [1.0, 0, print, ()] and b == [1.0, 1, print, ()]
        assert a < b and not b < a         # decided by seq
        with pytest.raises(TypeError):
            a[2] < b[2]                     # callbacks are not orderable

    def test_same_instant_events_pop_without_comparing_events(self):
        sim = Simulator()
        log = []
        for i in range(200):
            sim.schedule_at(2.0 if i % 2 else 1.0, log.append, i)
        sim.run()
        assert log == list(range(0, 200, 2)) + list(range(1, 200, 2))


#: ``(time, label)`` of the events :class:`TestCancelHandle` schedules,
#: in scheduling order, and the order they fire in: by time, ties in
#: scheduling order.
_PLAN = [(2.0, "a"), (1.0, "b"), (2.0, "c"), (0.5, "d"), (1.0, "e"),
         (3.0, "f"), (0.5, "g"), (3.0, "h")]
_FIRE_ORDER = ["d", "g", "b", "e", "a", "c", "f", "h"]


class TestCancelHandle:
    """``Simulator.cancel`` takes the entry ``schedule_at`` returned:
    O(1), idempotent, a no-op once the event fired, ``pending`` exact,
    and a cancelled entry counted in ``engine.cancelled`` when the
    drain discards it."""

    @pytest.fixture
    def counters(self):
        OBS.reset()
        names = ("engine.scheduled", "engine.events", "engine.cancelled")
        yield lambda: {k: v for k, v in OBS.metrics.snapshot().items()
                       if k in names}
        OBS.reset()

    @staticmethod
    def plan(sim, log):
        return [sim.schedule_at(t, log.append, label) for t, label in _PLAN]

    @pytest.mark.parametrize("victim", range(len(_PLAN)))
    def test_cancelling_one_leaves_the_rest_in_order(self, victim,
                                                      counters):
        sim, log = Simulator(), []
        entries = self.plan(sim, log)
        sim.cancel(entries[victim])
        assert entries[victim][2] is None
        assert sim.pending == len(_PLAN) - 1
        sim.run()
        assert log == [x for x in _FIRE_ORDER if x != _PLAN[victim][1]]
        assert sim.pending == 0
        assert counters() == {"engine.scheduled": len(_PLAN),
                              "engine.events": len(_PLAN) - 1,
                              "engine.cancelled": 1}

    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_repeated_cancel_counts_once(self, times, counters):
        sim, log = Simulator(), []
        entries = self.plan(sim, log)
        for _ in range(times):
            sim.cancel(entries[0])
        assert sim.pending == len(_PLAN) - 1
        sim.run()
        assert "a" not in log and len(log) == len(_PLAN) - 1
        assert counters()["engine.cancelled"] == 1

    @pytest.mark.parametrize("advance", ["step", "run_until", "run"])
    def test_cancel_after_firing_changes_nothing(self, advance, counters):
        sim, log = Simulator(), []
        entries = self.plan(sim, log)
        if advance == "step":
            assert sim.step() is True
        elif advance == "run_until":
            sim.run_until(0.5)
        else:
            sim.run()
        assert log[0] == "d"                # entries[3] fired
        before = (sim.pending, counters(), list(sim._heap))
        sim.cancel(entries[3])
        assert (sim.pending, counters(), list(sim._heap)) == before
        sim.run()
        assert log == _FIRE_ORDER
        assert "engine.cancelled" not in counters()

    @pytest.mark.parametrize("limit", [0.0, 0.5, 1.5])
    def test_a_cancelled_front_entry_is_discarded_whatever_the_limit(
            self, limit, counters):
        sim, log = Simulator(), []
        entries = self.plan(sim, log)
        sim.cancel(entries[3])              # "d", the front of the heap
        sim.run_until(limit)
        assert sim.now == limit
        when = {label: t for t, label in _PLAN}
        assert log == [label for label in _FIRE_ORDER
                       if label != "d" and when[label] <= limit]
        assert all(entry is not entries[3] for entry in sim._heap)
        assert counters()["engine.cancelled"] == 1
        assert sim.pending == len(_PLAN) - 1 - len(log)


class _Callback:
    """Callable whose ``repr`` counts how often it is asked for."""

    def __init__(self):
        self.reprs = 0

    def __call__(self):
        pass

    def __repr__(self):
        self.reprs += 1
        return "<callback>"


class TestEventLabel:
    """``engine.event``'s ``fn`` and the profiler's component name:
    ``__qualname__`` when there is one, else one ``repr`` per event."""

    def labels(self, *fns):
        sim = Simulator()
        for fn in fns:
            sim.schedule(1.0, fn)
        with OBS.bus.capture() as sink:
            sim.run()
        return [e["fn"] for e in sink.events("engine.event")]

    def test_qualname_partial_and_lambda(self):
        def local():
            pass

        part = functools.partial(local)
        assert self.labels(local, part, Simulator().run) == [
            "TestEventLabel.test_qualname_partial_and_lambda.<locals>.local",
            repr(part), "Simulator.run"]

    def test_repr_only_without_a_qualname(self):
        named, anon = _Callback(), _Callback()
        named.__qualname__ = "named.callback"
        assert self.labels(named, anon) == ["named.callback", "<callback>"]
        assert (named.reprs, anon.reprs) == (0, 1)

    def test_one_repr_with_bus_and_profiler_both_on(self):
        anon = _Callback()
        OBS.profiler = Profiler()
        try:
            assert self.labels(anon) == ["<callback>"]
            names = {node.name for node in OBS.profiler.root.children.values()}
        finally:
            OBS.profiler = None
        assert anon.reprs == 1 and names == {"engine:<callback>"}

    def test_nothing_computed_when_nobody_listens(self):
        anon = _Callback()
        sim = Simulator()
        sim.schedule(1.0, anon)
        sim.run()
        assert anon.reprs == 0
