"""The fault injector: deterministic expansion, triggers, ambient
state."""

import pytest

from repro.faults.injector import (
    FaultInjector,
    render_audit_rows,
    render_fault_timeline,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import OBS
from repro.obs.trace import RingBufferSink
from repro.simulation.engine import Simulator


def crash(t, rank, repair_after=5.0, trigger=None):
    return FaultEvent(kind="crash", time=t, rank=rank,
                      repair_after=repair_after, trigger=trigger)


class TestArming:
    def test_timed_events_expand_to_paired_actions(self):
        plan = FaultPlan([
            crash(10.0, 3, repair_after=7.0),
            FaultEvent(kind="slow_disk", time=2.0, rank=5, duration=4.0,
                       factor=0.5),
        ])
        sim = Simulator()
        injector = FaultInjector(plan)
        fired = []
        assert injector.arm(sim, lambda a: fired.append(
            (sim.now, a.kind, a.rank))) == 4
        sim.run()
        assert fired == [
            (2.0, "slow_disk.start", 5),
            (6.0, "slow_disk.end", 5),
            (10.0, "crash", 3),
            (17.0, "repair", 3),
        ]

    def test_triggered_events_wait_for_fire_trigger(self):
        plan = FaultPlan([crash(2.0, 4, trigger="reintegration")])
        sim = Simulator()
        injector = FaultInjector(plan)
        fired = []
        assert injector.arm(sim, lambda a: fired.append(
            (sim.now, a.kind))) == 0
        sim.run_until(30.0)
        assert fired == []
        assert injector.fire_trigger("reintegration", now=30.0) == 2
        sim.run()
        assert fired == [(32.0, "crash"), (37.0, "repair")]

    def test_trigger_fires_only_once(self):
        plan = FaultPlan([crash(1.0, 4, trigger="recovery")])
        sim = Simulator()
        injector = FaultInjector(plan)
        injector.arm(sim, lambda a: None)
        assert injector.fire_trigger("recovery", now=0.0) == 2
        assert injector.fire_trigger("recovery", now=5.0) == 0

    def test_fire_trigger_requires_arming(self):
        injector = FaultInjector(FaultPlan([]))
        with pytest.raises(RuntimeError, match="not armed"):
            injector.fire_trigger("phase2")


class TestAmbientState:
    def test_disk_factor_window(self):
        plan = FaultPlan([FaultEvent(kind="slow_disk", time=1.0, rank=2,
                                     duration=3.0, factor=0.4)])
        sim = Simulator()
        injector = FaultInjector(plan)
        injector.arm(sim, lambda a: None)
        assert injector.disk_factor(2) == 1.0
        sim.run_until(1.5)
        assert injector.disk_factor(2) == 0.4
        assert injector.capacity_factors() == {2: 0.4}
        sim.run_until(5.0)
        assert injector.disk_factor(2) == 1.0
        assert injector.capacity_factors() == {}

    def test_overlapping_degradations_compose_worst_case(self):
        plan = FaultPlan([
            FaultEvent(kind="slow_disk", time=0.0, rank=2, duration=10.0,
                       factor=0.5),
            FaultEvent(kind="slow_disk", time=2.0, rank=2, duration=2.0,
                       factor=0.2),
        ])
        sim = Simulator()
        injector = FaultInjector(plan)
        injector.arm(sim, lambda a: None)
        sim.run_until(3.0)
        assert injector.disk_factor(2) == 0.2
        sim.run_until(5.0)
        assert injector.disk_factor(2) == 0.5

    def test_link_blocked_during_window_only(self):
        plan = FaultPlan([FaultEvent(kind="link_loss", time=1.0, rank=3,
                                     peer=7, duration=4.0)])
        sim = Simulator()
        injector = FaultInjector(plan)
        injector.arm(sim, lambda a: None)
        assert not injector.link_blocked({3, 7, 9})
        sim.run_until(2.0)
        assert injector.link_blocked({3, 7, 9})
        assert not injector.link_blocked({3, 9})    # one endpoint only
        sim.run_until(6.0)
        assert not injector.link_blocked({3, 7})

    def test_link_blocked_reads_ranks_only_while_a_link_is_down(self):
        # The replicated store asks once per replica per op; with every
        # link up the answer is False before the ranks are looked at.
        reads = []

        def ranks(*rs):
            reads.append(rs)
            yield from rs

        plan = FaultPlan([FaultEvent(kind="link_loss", time=1.0, rank=3,
                                     peer=7, duration=4.0)])
        sim = Simulator()
        injector = FaultInjector(plan)
        injector.arm(sim, lambda a: None)
        assert injector.link_blocked(ranks(3, 7)) is False
        assert reads == []
        sim.run_until(2.0)
        assert injector.link_blocked(ranks(3, 7)) is True
        assert injector.link_blocked(ranks(3, 9)) is False
        assert reads == [(3, 7), (3, 9)]
        sim.run_until(6.0)
        assert injector.link_blocked(ranks(3, 7)) is False
        assert reads == [(3, 7), (3, 9)]


class TestEvents:
    def test_fault_inject_events_emitted(self):
        plan = FaultPlan([crash(1.0, 6, repair_after=2.0)])
        sim = Simulator()
        injector = FaultInjector(plan)
        injector.arm(sim, lambda a: None)
        sink = OBS.bus.attach(RingBufferSink())
        try:
            sim.run()
        finally:
            OBS.bus.detach(sink)
        injected = sink.events("fault.inject")
        assert [e["action"] for e in injected] == ["crash", "repair"]
        assert all(e["rank"] == 6 for e in injected)
        assert [(t, a.kind) for t, a in injector.applied] == \
            [(1.0, "crash"), (3.0, "repair")]


class TestReportFragments:
    """Shared by the chaos and kv-churn reports."""

    def test_timeline_details_only_what_a_record_carries(self):
        lines = render_fault_timeline([
            {"t": 1.0, "kind": "crash", "rank": 6, "peer": None,
             "factor": None},
            {"t": 2.5, "kind": "slow_disk.start", "rank": 3, "peer": None,
             "factor": 0.25},
            # kv-churn's records have no "factor" key at all.
            {"t": 4.0, "kind": "link_loss.start", "rank": 1, "peer": 2},
        ])
        assert lines[:2] == ["## fault timeline", ""]
        assert lines[4:] == [
            "| 1.0 | crash | rank 6 |",
            "| 2.5 | slow_disk.start | rank 3, factor 0.25 |",
            "| 4.0 | link_loss.start | rank 1, peer 2 |"]

    def test_timeline_without_faults(self):
        assert render_fault_timeline([]) == [
            "## fault timeline", "", "no faults fired."]

    def test_audit_rows_elide_the_middle_past_twelve(self):
        row = "| {t} |"
        audits = [{"t": t, "label": "periodic"} for t in range(30)]
        assert render_audit_rows(audits[:12], row) == [
            f"| {t} |" for t in range(12)]
        assert render_audit_rows(audits, row) == (
            [f"| {t} |" for t in (0, 1, 2, 3, 4, 5, 24, 25, 26, 27, 28, 29)]
            + ["(… 18 audits elided …)"])
