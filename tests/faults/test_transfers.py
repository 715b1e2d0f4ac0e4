"""Interruptible transfers: ack-before-commit, re-enqueue on
preemption, backoff, quarantine."""

from collections import Counter

import pytest

import repro.faults.retry as retry
from repro.faults.retry import RetryPolicy
from repro.faults.transfers import PlannedTransfer, TransferJob, TransferManager
from repro.obs import OBS
from repro.obs.trace import RingBufferSink
from repro.simulation.flows import FlowSet


class FakeCluster:
    """Just the surface TransferManager needs: rank pinning and waste
    accounting."""

    def __init__(self):
        self.inflight = Counter()
        self.wasted = Counter()

    def acquire_ranks(self, ranks):
        for r in ranks:
            self.inflight[r] += 1

    def release_ranks(self, ranks):
        for r in ranks:
            self.inflight[r] -= 1
            if self.inflight[r] == 0:
                del self.inflight[r]

    def record_wasted_bytes(self, kind, nbytes):
        self.wasted[kind] += nbytes


@pytest.fixture
def rig(monkeypatch):
    cluster = FakeCluster()
    flows = FlowSet()
    for name, value in (("BASE_DELAY", 1.0), ("MAX_ATTEMPTS", 3),
                        ("JITTER", 0.0)):
        monkeypatch.setattr(retry, name, value)
    policy = RetryPolicy()
    manager = TransferManager(cluster, flows, policy)
    sink = OBS.bus.attach(RingBufferSink())
    yield cluster, flows, manager, sink
    OBS.bus.detach(sink)


def simple_job(key="recovery:r3v1", nbytes=200.0, ranks=(1,),
               oids=(10, 11), commit=None):
    def plan_fn():
        return PlannedTransfer(
            nbytes=nbytes, ranks=frozenset(ranks), oids=tuple(oids),
            commit=commit or (lambda: None))
    return TransferJob(key=key, kind="recovery", plan_fn=plan_fn)


class TestCompletion:
    def test_ack_precedes_commit(self, rig):
        cluster, flows, manager, sink = rig
        acked_before_commit = []

        def commit():
            acked_before_commit.append(
                bool(sink.events("transfer.ack")))

        manager.submit(simple_job(commit=commit), now=0.0)
        assert manager.poll(0.0) == 1
        assert cluster.inflight == {1: 1}
        flows.advance(1.0, {1: 100.0})
        flows.advance(1.0, {1: 100.0})   # 200 bytes drained
        assert acked_before_commit == [True]
        assert manager.completed == 1
        assert manager.idle
        assert not cluster.inflight
        starts = sink.events("transfer.start")
        assert starts[0]["transfer"] == "recovery"
        assert starts[0]["attempt"] == 1

    def test_zero_byte_plan_acks_and_commits_immediately(self, rig):
        cluster, flows, manager, sink = rig
        committed = []
        job = simple_job(nbytes=0.0, commit=lambda: committed.append(1))
        manager.submit(job, now=0.0)
        manager.poll(0.0)
        assert committed == [1]
        assert job.status == "done"
        assert len(flows) == 0
        assert sink.events("transfer.ack")
        assert not cluster.inflight

    def test_plan_fn_returning_none_means_done(self, rig):
        cluster, flows, manager, sink = rig
        job = TransferJob(key="k", kind="recovery", plan_fn=lambda: None)
        manager.submit(job, now=0.0)
        assert manager.poll(0.0) == 0
        assert job.status == "done"
        assert manager.completed == 1
        assert not sink.events("transfer.start")


class TestInterruption:
    def test_crash_reenqueues_with_wasted_bytes(self, rig):
        cluster, flows, manager, sink = rig
        committed = []
        job = simple_job(ranks=(3, 4), commit=lambda: committed.append(1))
        manager.submit(job, now=0.0)
        manager.poll(0.0)
        flows.advance(1.0, {3: 50.0, 4: 50.0})   # partial progress
        OBS.bus.clock = 1.0
        assert manager.on_crash(3) == 1
        # No commit happened, ranks released, waste accounted, and the
        # job is back in the queue with a backoff.
        assert committed == []
        assert not cluster.inflight
        assert job.status == "pending"
        assert job.wasted_bytes > 0
        assert cluster.wasted["recovery"] == job.wasted_bytes
        assert job.ready_at == pytest.approx(1.0 + 1.0)  # base_delay
        retry = sink.events("transfer.retry")[0]
        assert retry["reason"] == "interrupted"
        assert manager.stats()["interrupted"] == 1

    def test_interrupted_job_relaunches_and_completes(self, rig):
        cluster, flows, manager, sink = rig
        committed = []
        job = simple_job(ranks=(3,), commit=lambda: committed.append(1))
        manager.submit(job, now=0.0)
        manager.poll(0.0)
        flows.advance(1.0, {3: 50.0})
        OBS.bus.clock = 1.0
        manager.on_crash(3)
        assert manager.poll(1.5) == 0        # backoff not expired yet
        assert manager.poll(2.0) == 1        # re-launched, fresh plan
        flows.advance(2.0, {3: 100.0})       # full 200 bytes again
        assert committed == [1]
        assert job.attempts == 2

    def test_crash_only_hits_dependent_transfers(self, rig):
        cluster, flows, manager, sink = rig
        a = simple_job(key="a", ranks=(3,))
        b = simple_job(key="b", ranks=(5,))
        manager.submit(a, now=0.0)
        manager.submit(b, now=0.0)
        manager.poll(0.0)
        OBS.bus.clock = 0.5
        assert manager.on_crash(3) == 1
        assert a.status == "pending" and b.status == "active"

    def test_link_loss_hits_spanning_transfers(self, rig):
        cluster, flows, manager, sink = rig
        a = simple_job(key="a", ranks=(3, 7))
        b = simple_job(key="b", ranks=(3, 5))
        manager.submit(a, now=0.0)
        manager.submit(b, now=0.0)
        manager.poll(0.0)
        OBS.bus.clock = 0.5
        assert manager.on_link_loss({3, 7}) == 1
        assert a.status == "pending" and b.status == "active"


class TestBackoffAndQuarantine:
    def test_link_blocked_launch_backs_off_without_spinning(self, rig):
        cluster, flows, manager, sink = rig
        job = simple_job(ranks=(3, 7))
        manager._link_blocked = lambda ranks: True
        manager.submit(job, now=0.0)
        assert manager.poll(0.0) == 0
        assert job.status == "pending"
        assert job.ready_at > 0.0           # future: the poll can't spin
        assert len(flows) == 0
        assert not cluster.inflight
        assert sink.events("transfer.retry")[0]["reason"] == "link-blocked"

    def test_quarantine_after_max_attempts_surfaces_degraded(self, rig):
        cluster, flows, manager, sink = rig
        job = simple_job(oids=(42, 43), ranks=(3, 7))
        manager._link_blocked = lambda ranks: True
        manager.submit(job, now=0.0)
        now = 0.0
        for _ in range(5):
            manager.poll(now)
            now = max(now + 0.1, job.ready_at)
            if job.status == "quarantined":
                break
        assert job.status == "quarantined"
        assert job.attempts == 3
        assert manager.degraded_objects() == (42, 43)
        assert manager.idle                  # quarantined ≠ waiting
        q = sink.events("transfer.quarantine")[0]
        assert q["oids"] == [42, 43]
        assert q["attempts"] == 3
