"""Overhead guards: disabled observability must stay near-free.

The acceptance bar for the instrumentation is that the default state —
no sinks attached, no profiler — adds only a branch to the hot
paths.  These tests put loose absolute bounds on the per-call cost so
a regression (say, building the event dict before checking for sinks)
fails loudly without making the suite timing-flaky.
"""

from time import perf_counter

from repro.obs import OBS
from repro.obs.invariants import CheckerSink
from repro.obs.trace import NullSink, TraceBus


def _per_call(fn, n):
    t0 = perf_counter()
    for _ in range(n):
        fn()
    return (perf_counter() - t0) / n


class TestEmitCost:
    def test_emit_without_sinks_is_a_branch(self):
        bus = TraceBus()
        cost = _per_call(
            lambda: bus.emit("k", t=0.0, oid=1, nbytes=4194304), 50_000)
        # A real emit builds a dict and touches every sink; the no-sink
        # path must be far below a microsecond even on slow CI (loose:
        # 2 us, ~20x headroom over a dict build).
        assert cost < 2e-6, f"no-sink emit cost {cost * 1e9:.0f} ns"

    def test_emit_of_a_kind_nobody_takes_builds_nothing(self):
        # A checker-only bus (--check without --trace-out): the event
        # is counted and dropped before its dict is built, so the cost
        # stays in the no-sink class (same loose 2 us), not the 10 us
        # class of a delivered event.
        bus = TraceBus()
        bus.attach(CheckerSink())
        cost = _per_call(
            lambda: bus.emit("engine.event", t=0.0, seq=1, fn="f"), 50_000)
        assert bus.ordinal == 50_000
        assert cost < 2e-6, f"untaken emit cost {cost * 1e9:.0f} ns"

    def test_takes_of_a_kind_nobody_takes_is_a_branch(self):
        # The guard hot producers use instead of the emit call: one
        # table lookup and the ordinal bump, no kwargs (same loose 2 us
        # as the no-sink emit).
        bus = TraceBus()
        bus.attach(CheckerSink())
        cost = _per_call(lambda: bus.takes("engine.event"), 50_000)
        assert bus.ordinal == 50_000
        assert cost < 2e-6, f"untaken takes cost {cost * 1e9:.0f} ns"

    def test_null_sink_swallows_cheaply(self):
        bus = TraceBus()
        bus.attach(NullSink())
        cost = _per_call(
            lambda: bus.emit("k", t=0.0, oid=1, nbytes=4194304), 50_000)
        # Active path pays the dict build + one virtual call: still
        # bounded (loose: 10 us).
        assert cost < 1e-5, f"null-sink emit cost {cost * 1e9:.0f} ns"

    def test_guarded_call_sites_skip_field_construction(self):
        # The pattern used at every producer: OBS.bus.active is a plain
        # field, so the guard itself must be sub-microsecond.
        bus = TraceBus()
        cost = _per_call(lambda: bus.active, 50_000)
        assert cost < 2e-6


class TestHotFlag:
    """The ``OBS.hot`` switch is gone; what is left to guard is that
    the placement hot path writes nothing wall-clock to the registry."""

    def test_locate_unaffected_when_cold(self, ech10):
        OBS.metrics.reset()
        for oid in range(200):
            ech10.locate(oid)
        assert not [k for k in OBS.metrics.snapshot()
                    if k.startswith("perf.")]
