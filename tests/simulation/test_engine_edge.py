"""Additional engine edge cases surfaced while building the drivers."""

import functools

import pytest

from repro.obs import OBS, Profiler
from repro.simulation.engine import Event, Simulator


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
        sim.schedule(1.0, later.cancel)
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
        return sum(1 for _t, _seq, ev in sim._heap if not ev.cancelled)

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
                rng.choice(events).cancel()
            elif op < 0.95:
                sim.step()
            else:
                for ev in events:
                    ev.cancel()
            assert sim.pending == self.naive_pending(sim)
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        assert sim.pending == 1
        ev.cancel()
        ev.cancel()
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        ev.cancel()
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
    """The heap holds ``(time, seq, event)``: ordered in C by the
    documented key, events themselves never compared."""

    def test_events_define_no_ordering(self):
        assert "__lt__" not in vars(Event)
        a, b = Event(1.0, 0, print, ()), Event(1.0, 1, print, ())
        with pytest.raises(TypeError):
            a < b

    def test_same_instant_events_pop_without_comparing_events(self):
        sim = Simulator()
        log = []
        for i in range(200):
            sim.schedule_at(2.0 if i % 2 else 1.0, log.append, i)
        sim.run()
        assert log == list(range(0, 200, 2)) + list(range(1, 200, 2))


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
