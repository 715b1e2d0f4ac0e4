"""Metrics registry: instruments, labels, snapshot determinism."""

import pytest

from repro.obs import OBS
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestInstruments:
    def test_counter(self, reg):
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert reg.snapshot()["x"] == 5

    def test_gauge(self, reg):
        g = reg.gauge("g")
        g.set(7)
        g.inc(2)
        g.dec()
        assert reg.snapshot()["g"] == 8

    def test_get_or_create_returns_same_instrument(self, reg):
        assert reg.counter("x") is reg.counter("x")

    def test_type_clash_rejected(self, reg):
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestLabels:
    def test_labelled_instruments_are_distinct(self, reg):
        reg.counter("moves", rank=1).inc()
        reg.counter("moves", rank=2).inc(3)
        snap = reg.snapshot()
        assert snap["moves{rank=1}"] == 1
        assert snap["moves{rank=2}"] == 3

    def test_label_order_is_canonical(self, reg):
        a = reg.counter("m", b=2, a=1)
        b = reg.counter("m", a=1, b=2)
        assert a is b
        assert a.name == "m{a=1,b=2}"


class TestSnapshot:
    def test_sorted_key_order(self, reg):
        reg.counter("z.last").inc()
        reg.counter("a.first").inc()
        reg.gauge("m.middle").set(1)
        assert list(reg.snapshot()) == ["a.first", "m.middle", "z.last"]

    def test_include_perf_false_hides_wall_clock(self, reg):
        reg.counter("sim.state").inc()
        reg.counter("perf.x").inc()
        assert "perf.x" in reg.snapshot()
        assert list(reg.snapshot(include_perf=False)) == ["sim.state"]

    def test_render_lists_every_instrument(self, reg):
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        text = reg.render(title="t")
        for fragment in ("c", "counter", "g", "gauge"):
            assert fragment in text

    def test_render_empty(self, reg):
        assert "no metrics" in reg.render()

    def test_reset(self, reg):
        reg.counter("x").inc()
        reg.reset()
        assert len(reg) == 0


class TestRunDeterminism:
    """Two identically-seeded experiment runs must leave identical
    simulation-state metrics and identical traces."""

    @staticmethod
    def _run():
        from repro.experiments import run_three_phase
        OBS.reset()
        with OBS.bus.capture(capacity=200_000) as sink:
            run_three_phase("selective", scale=0.02)
            events = sink.events()
        snap = OBS.metrics.snapshot(include_perf=False)
        OBS.reset()
        return snap, events

    def test_same_seed_same_metrics_and_trace(self):
        snap1, events1 = self._run()
        snap2, events2 = self._run()
        assert snap1 == snap2
        assert events1 == events2
        # The trace actually covers the instrumented subsystems.
        kinds = {str(e["kind"]) for e in events1}
        assert "engine.tick" in kinds
        assert "flow.start" in kinds
        assert "migration.move" in kinds


def _serve():
    from repro.serving import run_serve
    run_serve(duration=20.0, resize_at=6.0, resize_back_at=12.0)


def _chaos():
    from repro.faults import run_chaos
    run_chaos(seed=7, scale=0.05)


@pytest.mark.parametrize("run", [_serve, _chaos])
def test_registry_holds_simulation_state_only(run):
    """Nothing wall-clock enters the registry: after a whole run every
    value is a plain number and there is no ``perf.*`` row to hide."""
    OBS.reset()
    try:
        run()
        snap = OBS.metrics.snapshot()
        assert snap
        assert all(type(v) in (int, float) for v in snap.values())
        assert snap == OBS.metrics.snapshot(include_perf=False)
    finally:
        OBS.reset()
