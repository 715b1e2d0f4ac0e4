"""Discrete-event engine: ordering, cancellation, periodic ticks."""

import pytest

from repro.obs import OBS
from repro.simulation.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "late")
        sim.schedule(1.0, log.append, "early")
        sim.run()
        assert log == ["early", "late"]
        assert sim.now == 5.0

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "first")
        sim.schedule(1.0, log.append, "second")
        sim.run()
        assert log == ["first", "second"]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.run_until(10.0)
        fired = []
        sim.schedule_at(12.0, fired.append, True)
        sim.run()
        assert fired and sim.now == 12.0

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert log == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, True)
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.cancel(ev)
        assert sim.pending == 1

class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(5.0, log.append, 5)
        sim.run_until(3.0)
        assert log == [1] and sim.now == 3.0
        sim.run_until(6.0)
        assert log == [1, 5]

    def test_inclusive_boundary(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, 3)
        sim.run_until(3.0)
        assert log == [3]

    def test_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class TestFiniteTimes:
    """NaN compares false against everything, so an unguarded NaN
    timestamp would sail past the `< now` check and then violate the
    heap's strict weak ordering — silently, nondeterministically."""

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-finite"):
            sim.schedule_at(float("nan"), lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-finite"):
            sim.schedule(float("nan"), lambda: None)

    @pytest.mark.parametrize("t", [float("inf"), float("-inf")])
    def test_infinite_time_rejected(self, t):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(t, lambda: None)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_run_until_non_finite_rejected(self, t):
        # NaN used to fire every pending event and leave now = nan;
        # inf drained the queue and left now = inf, after which every
        # schedule raised.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, 1)
        with pytest.raises(ValueError, match="non-finite"):
            sim.run_until(t)
        assert fired == [] and sim.now == 0.0 and sim.pending == 1
        sim.run_until(2.0)
        sim.schedule(1.0, fired.append, 3)
        sim.run()
        assert fired == [1, 3] and sim.now == 3.0

    def test_rejected_event_leaves_no_residue(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0


class TestCounters:
    """``engine.events`` / ``engine.cancelled`` are summed per drain
    and added once; they must still be exact whichever entry point
    ran and however the drain ended."""

    def counters(self):
        return {k: v for k, v in OBS.metrics.snapshot().items()
                if k in ("engine.events", "engine.cancelled")}

    def test_a_raising_handler_leaves_them_exact(self):
        OBS.reset()
        try:
            sim = Simulator()
            sim.cancel(sim.schedule_at(1.0, lambda: None))
            sim.schedule_at(2.0, lambda: None)
            sim.schedule_at(3.0, lambda: 1 / 0)
            sim.schedule_at(4.0, lambda: None)
            with pytest.raises(ZeroDivisionError):
                sim.run_until(5.0)
            assert sim.now == 3.0 and sim.pending == 1
            assert self.counters() == {"engine.events": 2,
                                       "engine.cancelled": 1}
            sim.run()
            assert self.counters() == {"engine.events": 3,
                                       "engine.cancelled": 1}
        finally:
            OBS.reset()

    def test_no_cancel_registers_no_cancelled_counter(self):
        OBS.reset()
        try:
            sim = Simulator()
            sim.schedule_at(3.0, lambda: None)
            sim.schedule_at(4.0, lambda: None)
            sim.run_until(2.0)
            assert self.counters() == {"engine.events": 0}
            assert sim.step() is True
            sim.run()
            assert self.counters() == {"engine.events": 2}
        finally:
            OBS.reset()


class TestTieBreakAtScale:
    """The documented (time, seq) total order: thousands of
    same-instant events — the shape a large client population
    produces every tick — fire exactly in scheduling order."""

    def test_same_instant_insertion_order_5000_events(self):
        sim = Simulator()
        fired = []
        for i in range(5000):
            sim.schedule_at(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(5000))

    def test_interleaved_instants_totally_ordered(self):
        # Events at mixed times, many collisions per instant: within
        # an instant the sequence number (scheduling order) decides.
        sim = Simulator()
        fired = []
        expect = {}
        for i in range(3000):
            t = float(i % 7)
            sim.schedule_at(t, fired.append, (t, i))
            expect.setdefault(t, []).append((t, i))
        sim.run()
        want = [item for t in sorted(expect) for item in expect[t]]
        assert fired == want
