"""Admission coordinator: queue discipline, drain accounting,
backpressure delays, failover, and event emission."""

import pytest

import repro.serving.flowcontrol as flowcontrol
from repro.obs.runtime import OBS
from repro.obs.trace import RingBufferSink
from repro.serving.coordinator import AdmissionCoordinator, Request
from repro.serving.flowcontrol import (
    AdaptiveQueueController,
    FixedConcurrencyController,
    UnthrottledController,
)
from repro.simulation.engine import Simulator
from repro.simulation.iomodel import IOModel


@pytest.fixture
def bound_one(monkeypatch):
    """Every policy's queue bound is 1."""
    monkeypatch.setattr(flowcontrol, "QUEUE_BOUND", 1)


def make_stack(controller=None, caps=None, dt=1.0):
    OBS.reset()
    sim = Simulator()
    io = IOModel(lambda: dict(caps or {1: 100.0, 2: 100.0}), dt=dt)
    coord = AdmissionCoordinator(
        sim, io, controller or UnthrottledController(), dt)
    return sim, io, coord


def req(rid, server=1, nbytes=50.0, pop="closed", t=0.0, **kw):
    return Request(rid=rid, pop=pop, oid=rid, is_write=False,
                   server=server, nbytes=nbytes, t_enqueue=t, **kw)


def tick(sim, io, coord, now):
    coord.begin_tick()
    sim.run_until(now)
    coord.end_tick(now, io.step(now))


class TestAdmission:
    def test_enqueue_counts_and_creates_flow(self):
        _, io, coord = make_stack()
        assert coord.enqueue(req(1))
        assert coord.enqueued == {"closed": 1}
        assert len(io.flows.by_name("serve:1")) == 1

    def test_reject_fires_on_reject_and_counts(self, bound_one):
        _, _, coord = make_stack(FixedConcurrencyController())
        bounced = []
        assert coord.enqueue(req(1))
        assert not coord.enqueue(req(2, on_reject=bounced.append))
        assert [r.rid for r in bounced] == [2]
        assert coord.rejected == {"closed": 1}

    def test_bad_nbytes_rejected(self):
        with pytest.raises(ValueError):
            req(1, nbytes=0.0)


class TestDrain:
    def test_fifo_completion_order_and_latency(self):
        sim, io, coord = make_stack()
        done = []
        coord.enqueue(req(1, nbytes=60.0,
                          on_complete=lambda r, t: done.append((r.rid, t))))
        coord.enqueue(req(2, nbytes=60.0,
                          on_complete=lambda r, t: done.append((r.rid, t))))
        tick(sim, io, coord, 1.0)   # 100 B/s: drains req1 + 40 of req2
        assert [d[0] for d in done] == []
        sim.run_until(1.0)          # completion callbacks were scheduled
        assert [d[0] for d in done] == [1]
        tick(sim, io, coord, 2.0)
        sim.run_until(2.0)
        assert [d[0] for d in done] == [1, 2]
        assert coord.latencies["closed"] == [1.0, 2.0]
        assert coord.served_bytes == 120.0

    def test_new_arrival_cannot_drain_in_its_own_tick(self):
        # begin_tick fixes the budget from the start-of-tick backlog;
        # a request arriving mid-tick waits for the next one even if
        # the disk had spare capacity.
        sim, io, coord = make_stack()
        coord.begin_tick()          # empty queue -> zero demand
        sim.schedule_at(0.5, lambda: coord.enqueue(req(1, nbytes=10.0)))
        sim.run_until(1.0)
        coord.end_tick(1.0, io.step(1.0))
        assert coord.completed == {}
        tick(sim, io, coord, 2.0)
        assert coord.completed == {"closed": 1}

    def test_queues_share_capacity_fairly(self):
        sim, io, coord = make_stack(caps={1: 100.0})
        coord.enqueue(req(1, server=1, nbytes=80.0))
        coord.enqueue(req(2, server=1, nbytes=80.0, pop="open"))
        for i in range(1, 3):
            tick(sim, io, coord, float(i))
        assert coord.completed == {"closed": 1, "open": 1}

    def test_max_depth_tracked(self):
        _, _, coord = make_stack()
        for rid in range(5):
            coord.enqueue(req(rid))
        assert coord.max_depth == 5
        assert coord.outstanding == 5


class TestBackpressure:
    def test_delay_added_to_latency_and_schedule(self, monkeypatch):
        for name, value in (("TARGET", 1), ("GAIN", 1.0),
                            ("MAX_DELAY", 10.0)):
            monkeypatch.setattr(flowcontrol, name, value)
        ctrl = AdaptiveQueueController()
        sim, io, coord = make_stack(ctrl, caps={1: 100.0})
        coord.background_active = True
        done = []
        coord.enqueue(req(1, nbytes=100.0,
                          on_complete=lambda r, t: done.append(t)))
        for _ in range(3):          # backlog keeps depth at 3 post-drain
            coord.enqueue(req(99, nbytes=1e6))
        tick(sim, io, coord, 1.0)
        # depth after drain = 3 > target 1: delay = 1.0*(3-1)/1*2 = 4.0
        assert coord.latencies["closed"] == [5.0]
        assert done == []           # held back...
        sim.run_until(5.0)
        assert done == [5.0]        # ...and released at now+delay


class TestFailover:
    def test_requests_relocated_with_original_enqueue_time(self):
        sim, io, coord = make_stack()
        coord.enqueue(req(1, server=1, nbytes=50.0, t=0.0))
        moved = coord.failover([1], lambda r: 2)
        assert moved == 1
        assert not io.flows.by_name("serve:1")
        tick(sim, io, coord, 1.0)
        assert coord.completed == {"closed": 1}
        assert coord.latencies["closed"] == [1.0]   # from t_enqueue=0
        # net accounting: admitted once, not twice
        assert coord.enqueued == {"closed": 1}

    def test_failover_respects_admission(self, bound_one):
        ctrl = FixedConcurrencyController()
        sim, io, coord = make_stack(ctrl)
        bounced = []
        coord.enqueue(req(1, server=2))
        coord.enqueue(req(2, server=1, on_reject=bounced.append))
        coord.failover([1], lambda r: 2)     # queue 2 already full
        assert [r.rid for r in bounced] == [2]
        assert coord.rejected == {"closed": 1}

    def test_shutdown_retires_serve_flows(self):
        _, io, coord = make_stack()
        coord.enqueue(req(1, server=1))
        coord.enqueue(req(2, server=2))
        assert len(io.flows) == 2
        coord.shutdown()
        assert len(io.flows) == 0
        assert coord.outstanding == 2        # honest: still unfinished


class TestEvents:
    def test_serve_event_family_emitted(self, bound_one):
        sim, io, coord = make_stack(FixedConcurrencyController())
        sink = RingBufferSink()
        OBS.bus.attach(sink)
        try:
            coord.enqueue(req(1, nbytes=50.0))
            coord.enqueue(req(2))
            tick(sim, io, coord, 1.0)
            coord.failover([1], lambda r: 2)
        finally:
            OBS.bus.detach(sink)
        kinds = [e["kind"] for e in sink.events()
                 if e["kind"].startswith("serve.")]
        assert "serve.enqueue" in kinds
        assert "serve.reject" in kinds
        assert "serve.complete" in kinds
        assert "serve.queue" in kinds
        queue_ev = sink.events("serve.queue")[0]
        assert queue_ev["bound"] == 1
