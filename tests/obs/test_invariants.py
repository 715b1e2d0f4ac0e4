"""Invariant checkers: each checker's trip-wire, the suite, and the
seeded-fault detection path through ``repro check``."""

import json

import pytest

from repro.cli import main
from repro.obs.invariants import (
    BandwidthCapChecker,
    CheckerSink,
    DirtyAckChecker,
    DirtyDisciplineChecker,
    FlowAccountingChecker,
    InvariantSuite,
    MachineHourChecker,
    NoLostObjectChecker,
    PoweredMoveChecker,
    ReplicationRestoredChecker,
    SWEEP_BOUNDARY_KIND,
    ServeQueueBoundedChecker,
    VersionMonotonicChecker,
    check_events,
    checked_run,
    default_checkers,
    render_invariants,
)
from repro.obs.runtime import OBS
from repro.obs.trace import TraceBus


def run_checker(checker, events):
    for i, ev in enumerate(events, start=1):
        checker.observe(ev, i)
    checker.finish()
    return checker.violations


class TestVersionMonotonic:
    def test_increasing_ok(self):
        evs = [{"kind": "version.advance", "t": 0.0, "version": v}
               for v in (1, 2, 5)]
        assert run_checker(VersionMonotonicChecker(), evs) == []

    def test_regression_caught(self):
        evs = [{"kind": "version.advance", "t": 0.0, "version": 3},
               {"kind": "version.advance", "t": 1.0, "version": 3}]
        v = run_checker(VersionMonotonicChecker(), evs)
        assert len(v) == 1 and "3 -> 3" in v[0].message

    def test_missing_version_field_caught(self):
        v = run_checker(VersionMonotonicChecker(),
                        [{"kind": "version.advance", "t": 0.0}])
        assert len(v) == 1


class TestPoweredMove:
    def test_move_to_on_rank_ok(self):
        evs = [{"kind": "server.state", "t": 0, "rank": 4, "state": "on"},
               {"kind": "migration.move", "t": 1, "oid": 7, "to": [4]}]
        assert run_checker(PoweredMoveChecker(), evs) == []

    def test_move_to_off_rank_caught(self):
        evs = [{"kind": "server.state", "t": 0, "rank": 9, "state": "off"},
               {"kind": "migration.move", "t": 1, "oid": 7, "to": [9]}]
        v = run_checker(PoweredMoveChecker(), evs)
        assert len(v) == 1 and "rank 9" in v[0].message

    def test_failed_rank_counts_as_off(self):
        evs = [{"kind": "server.fail", "t": 0, "rank": 2},
               {"kind": "migration.move", "t": 1, "oid": 1, "to": [2]}]
        assert len(run_checker(PoweredMoveChecker(), evs)) == 1

    def test_repowered_rank_is_fine_again(self):
        evs = [{"kind": "server.state", "t": 0, "rank": 9, "state": "off"},
               {"kind": "server.state", "t": 1, "rank": 9, "state": "on"},
               {"kind": "migration.move", "t": 2, "oid": 7, "to": [9]}]
        assert run_checker(PoweredMoveChecker(), evs) == []


class TestDirtyDiscipline:
    def test_insert_below_full_power_ok(self):
        evs = [{"kind": "version.advance", "t": 0, "version": 2,
                "full_power": False},
               {"kind": "dirty.insert", "t": 1, "oid": 5, "version": 2}]
        assert run_checker(DirtyDisciplineChecker(), evs) == []

    def test_insert_at_full_power_caught(self):
        evs = [{"kind": "version.advance", "t": 0, "version": 2,
                "full_power": True},
               {"kind": "dirty.insert", "t": 1, "oid": 5, "version": 2}]
        v = run_checker(DirtyDisciplineChecker(), evs)
        assert len(v) == 1 and "full" in v[0].message

    def test_move_of_untracked_object_caught(self):
        v = run_checker(DirtyDisciplineChecker(),
                        [{"kind": "migration.move", "t": 0, "oid": 99,
                          "to": [3]}])
        assert len(v) == 1 and "99" in v[0].message

    def test_move_of_tracked_object_ok(self):
        evs = [{"kind": "version.advance", "t": 0, "version": 2,
                "full_power": False},
               {"kind": "dirty.insert", "t": 1, "oid": 5, "version": 2},
               {"kind": "migration.move", "t": 2, "oid": 5, "to": [3]}]
        assert run_checker(DirtyDisciplineChecker(), evs) == []


class TestBandwidthCap:
    def test_under_cap_ok(self):
        evs = [{"kind": "bandwidth.solve", "t": 0, "max_util": 1.0}]
        assert run_checker(BandwidthCapChecker(), evs) == []

    def test_over_cap_caught(self):
        evs = [{"kind": "bandwidth.solve", "t": 0, "max_util": 1.5,
                "max_util_rank": 3}]
        v = run_checker(BandwidthCapChecker(), evs)
        assert len(v) == 1 and "server 3" in v[0].message

    def test_legacy_trace_without_field_skipped(self):
        evs = [{"kind": "bandwidth.solve", "t": 0, "flows": 2}]
        assert run_checker(BandwidthCapChecker(), evs) == []


class TestServeQueueBounded:
    def test_depth_within_bound_ok(self):
        evs = [{"kind": "serve.queue", "t": 1.0, "server": 2,
                "depth": 64, "bound": 64}]
        assert run_checker(ServeQueueBoundedChecker(), evs) == []

    def test_depth_over_bound_caught(self):
        evs = [{"kind": "serve.queue", "t": 1.0, "server": 2,
                "depth": 65, "bound": 64}]
        v = run_checker(ServeQueueBoundedChecker(), evs)
        assert len(v) == 1
        assert "server 2" in v[0].message and "65" in v[0].message

    def test_bound_is_per_sample_not_global(self):
        # The bound travels with each sample, so a trace mixing
        # controllers judges each sample against its own contract.
        evs = [{"kind": "serve.queue", "t": 1.0, "server": 1,
                "depth": 10, "bound": 8},
               {"kind": "serve.queue", "t": 2.0, "server": 1,
                "depth": 10, "bound": 64}]
        v = run_checker(ServeQueueBoundedChecker(), evs)
        assert len(v) == 1 and v[0].index == 1

    def test_vacuous_without_serve_events(self):
        evs = [{"kind": "flow.start", "t": 0.0, "span_id": 1,
                "name": "client"}]
        checker = ServeQueueBoundedChecker()
        assert run_checker(checker, evs) == []
        assert checker.ok

    def test_malformed_sample_skipped(self):
        evs = [{"kind": "serve.queue", "t": 0.0, "server": 1,
                "depth": "deep", "bound": 4}]
        assert run_checker(ServeQueueBoundedChecker(), evs) == []

    def test_in_default_suite_and_reconstructible(self):
        # The sweep boundary logic re-instantiates checkers by type —
        # every default checker must be no-arg constructible.
        suite = default_checkers()
        assert any(isinstance(c, ServeQueueBoundedChecker)
                   for c in suite)
        for c in suite:
            type(c)()


class TestFlowAccounting:
    def test_start_finish_pair_ok(self):
        evs = [{"kind": "flow.start", "t": 0, "name": "client",
                "span_id": 1},
               {"kind": "flow.finish", "t": 5, "name": "client",
                "span_id": 1}]
        assert run_checker(FlowAccountingChecker(), evs) == []

    def test_cancel_also_retires(self):
        evs = [{"kind": "flow.start", "t": 0, "name": "client",
                "span_id": 1},
               {"kind": "flow.cancel", "t": 5, "name": "client",
                "span_id": 1}]
        assert run_checker(FlowAccountingChecker(), evs) == []

    def test_unfinished_flow_caught_at_eof(self):
        v = run_checker(FlowAccountingChecker(),
                        [{"kind": "flow.start", "t": 0, "name": "client",
                          "span_id": 1}])
        assert len(v) == 1 and "never finished" in v[0].message

    def test_finish_without_start_caught(self):
        v = run_checker(FlowAccountingChecker(),
                        [{"kind": "flow.finish", "t": 0, "name": "x",
                          "span_id": 9}])
        assert len(v) == 1 and "never started" in v[0].message

    def test_spanless_trace_matches_by_name(self):
        evs = [{"kind": "flow.start", "t": 0, "name": "client"},
               {"kind": "flow.finish", "t": 5, "name": "client"}]
        assert run_checker(FlowAccountingChecker(), evs) == []


class TestMachineHours:
    def test_consistent_samples_ok(self):
        evs = [{"kind": "power.sample", "t": 0, "active": 10},
               {"kind": "server.state", "t": 1, "rank": 7, "state": "off"},
               {"kind": "power.sample", "t": 2, "active": 9}]
        assert run_checker(MachineHourChecker(), evs) == []

    def test_inconsistent_sample_caught(self):
        evs = [{"kind": "power.sample", "t": 0, "active": 10},
               {"kind": "server.state", "t": 1, "rank": 7, "state": "off"},
               {"kind": "power.sample", "t": 2, "active": 10}]
        v = run_checker(MachineHourChecker(), evs)
        assert len(v) == 1 and "imply 9" in v[0].message

    def test_policy_trace_without_states_vacuous(self):
        evs = [{"kind": "power.sample", "t": 0, "active": 10},
               {"kind": "power.sample", "t": 1, "active": 6}]
        assert run_checker(MachineHourChecker(), evs) == []


class TestSuite:
    def test_violations_sorted_by_stream_position(self):
        violations = check_events([
            {"kind": "migration.move", "t": 0, "oid": 1, "to": [1]},
            {"kind": "version.advance", "t": 1, "version": 2},
            {"kind": "version.advance", "t": 2, "version": 1},
        ])
        assert [v.index for v in violations] == sorted(
            v.index for v in violations)
        assert {v.checker for v in violations} == {"dirty-discipline",
                                                   "version-monotonic"}

    def test_finish_runs_once(self):
        suite = InvariantSuite()
        suite.observe({"kind": "flow.start", "t": 0, "name": "c",
                       "span_id": 1}, 1)
        assert len(suite.finish()) == 1
        assert len(suite.finish()) == 1     # not doubled

    def test_checker_sink_counts_ordinals(self):
        bus = TraceBus()
        sink = bus.attach(CheckerSink())
        bus.emit("version.advance", t=0.0, version=2)
        bus.emit("version.advance", t=1.0, version=1)
        violations = sink.finish()
        assert len(violations) == 1 and violations[0].index == 2


class TestSeededFault:
    """ISSUE acceptance: forge a migration.move to a powered-off rank
    into a healthy trace and assert ``repro check`` flags it."""

    @pytest.fixture()
    def healthy_trace(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["three-phase", "--mode", "selective",
                     "--scale", "0.05", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_healthy_trace_passes(self, healthy_trace, capsys):
        assert main(["check", str(healthy_trace)]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_forged_move_to_powered_off_rank_detected(
            self, healthy_trace, tmp_path, capsys):
        events = [json.loads(ln) for ln
                  in healthy_trace.read_text().splitlines() if ln]
        off_rank = next(e["rank"] for e in events
                        if e["kind"] == "server.state"
                        and e["state"] == "off")
        idx = next(i for i, e in enumerate(events)
                   if e["kind"] == "server.state" and e["state"] == "off")
        forged = dict(events[idx], kind="migration.move", oid=424242,
                      nbytes=4 << 20, to=[off_rank], dropped=[])
        forged.pop("rank", None)
        forged.pop("state", None)
        events.insert(idx + 1, forged)

        bad = tmp_path / "forged.jsonl"
        bad.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "powered-move" in out
        assert f"rank {off_rank}" in out
        assert f"line {idx + 2}" in out     # 1-based JSONL line number


class TestNoLostObject:
    def test_object_lost_event_trips(self):
        violations = run_checker(NoLostObjectChecker(), [
            {"kind": "object.lost", "t": 5.0, "oid": 42, "rank": 3},
        ])
        assert len(violations) == 1
        assert "object 42" in violations[0].message

    def test_audit_with_lost_trips(self):
        violations = run_checker(NoLostObjectChecker(), [
            {"kind": "chaos.audit", "t": 10.0, "lost": 2,
             "under_replicated": 0},
        ])
        assert len(violations) == 1

    def test_healthy_audits_pass(self):
        assert run_checker(NoLostObjectChecker(), [
            {"kind": "chaos.audit", "t": 10.0, "lost": 0,
             "under_replicated": 5},
        ]) == []

    def test_vacuous_without_grounding_events(self):
        assert run_checker(NoLostObjectChecker(), [
            {"kind": "flow.start", "t": 0.0, "name": "client"},
        ]) == []


class TestReplicationRestored:
    def test_final_audit_under_replicated_trips(self):
        violations = run_checker(ReplicationRestoredChecker(), [
            {"kind": "chaos.audit", "t": 10.0, "lost": 0,
             "under_replicated": 3},
        ])
        assert len(violations) == 1
        assert "3 under-replicated" in violations[0].message

    def test_only_the_last_audit_counts(self):
        # Mid-run repair debt is legal; convergence by the end is what
        # matters.
        assert run_checker(ReplicationRestoredChecker(), [
            {"kind": "chaos.audit", "t": 10.0, "lost": 1,
             "under_replicated": 90},
            {"kind": "chaos.audit", "t": 60.0, "lost": 0,
             "under_replicated": 0},
        ]) == []

    def test_vacuous_without_audits(self):
        assert run_checker(ReplicationRestoredChecker(), [
            {"kind": "version.advance", "t": 0.0, "version": 2},
        ]) == []


class TestDirtyAck:
    def test_remove_without_ack_trips(self):
        violations = run_checker(DirtyAckChecker(), [
            {"kind": "transfer.start", "t": 1.0, "key": "r:1"},
            {"kind": "dirty.remove", "t": 2.0, "oid": 7, "version": 3},
        ])
        assert len(violations) == 1
        assert "object 7" in violations[0].message

    def test_remove_after_covering_ack_passes(self):
        assert run_checker(DirtyAckChecker(), [
            {"kind": "transfer.start", "t": 1.0, "key": "r:1"},
            {"kind": "transfer.ack", "t": 2.0, "key": "r:1",
             "oids": [7, 8]},
            {"kind": "dirty.remove", "t": 2.0, "oid": 7, "version": 3},
        ]) == []

    def test_ack_for_other_object_does_not_cover(self):
        violations = run_checker(DirtyAckChecker(), [
            {"kind": "transfer.start", "t": 1.0, "key": "r:1"},
            {"kind": "transfer.ack", "t": 2.0, "key": "r:1",
             "oids": [8]},
            {"kind": "dirty.remove", "t": 2.0, "oid": 7, "version": 3},
        ])
        assert len(violations) == 1

    def test_vacuous_before_transfer_layer(self):
        # Traces from the plain three-phase driver remove dirty entries
        # without any transfer events: grounded only by transfer.start.
        assert run_checker(DirtyAckChecker(), [
            {"kind": "dirty.remove", "t": 2.0, "oid": 7, "version": 3},
        ]) == []


class TestSweepBoundary:
    """A merged sweep trace concatenates independent runs; the
    ``sweep.task`` boundary event must restart every checker so one
    task's state never bleeds into the next — version epochs restart
    at 1 in each run, which a single suite would flag as a regression."""

    @staticmethod
    def run_suite(events):
        suite = InvariantSuite()
        for i, ev in enumerate(events, start=1):
            suite.observe(ev, i)
        return suite

    def test_version_restart_across_boundary_is_clean(self):
        suite = self.run_suite([
            {"kind": "version.advance", "t": 0.0, "version": 5},
            {"kind": SWEEP_BOUNDARY_KIND, "t": 0.0, "task": "b"},
            {"kind": "version.advance", "t": 0.0, "version": 1},
        ])
        assert suite.finish() == [] and suite.ok

    def test_violation_before_boundary_survives_the_restart(self):
        suite = self.run_suite([
            {"kind": "version.advance", "t": 0.0, "version": 3},
            {"kind": "version.advance", "t": 1.0, "version": 2},
            {"kind": SWEEP_BOUNDARY_KIND, "t": 0.0, "task": "b"},
            {"kind": "version.advance", "t": 0.0, "version": 1},
        ])
        violations = suite.finish()
        assert [v.checker for v in violations] == ["version-monotonic"]
        assert not suite.ok

    def test_boundary_triggers_end_of_run_checks(self):
        # An unfinished flow is an end-of-stream violation; the
        # boundary must run it for the task that just ended.
        suite = self.run_suite([
            {"kind": "flow.start", "t": 0.0, "name": "c", "span_id": 1},
            {"kind": SWEEP_BOUNDARY_KIND, "t": 0.0, "task": "b"},
        ])
        assert [v.checker for v in suite.finish()] == ["flow-accounting"]


class TestCheckedRun:
    """The harnesses' shared attach → span → detach → verdict block."""

    def events(self, body, check=True):
        OBS.reset()
        try:
            with OBS.bus.capture() as sink:
                try:
                    with checked_run("x.run", check, seed=3) as checked:
                        body()
                except RuntimeError:
                    pass
                return checked, sink.events(), list(OBS.bus.sinks)
        finally:
            OBS.reset()

    def test_completed_run_collects_the_verdict(self):
        def body():
            OBS.bus.emit("flow.start", name="c", span_id=99)

        checked, events, sinks = self.events(body)
        assert [(e["kind"], e.get("status")) for e in events] == [
            ("span.begin", None), ("flow.start", None),
            ("span.end", "completed")]
        assert events[0]["name"] == "x.run" and events[0]["seed"] == 3
        assert len(sinks) == 1                  # only the capture is left
        assert checked.checkers == len(default_checkers())
        assert checked.events_seen == 3
        assert len(checked.violations) == 1
        assert "flow-accounting" in checked.violations[0]
        assert render_invariants(checked) == [
            "## invariants", "",
            f"1 violation(s) across {checked.checkers} checkers:",
            f"- {checked.violations[0]}"]

    def test_failed_run_ends_the_span_failed_and_detaches(self):
        def body():
            raise RuntimeError("boom")

        checked, events, sinks = self.events(body)
        assert events[-1]["kind"] == "span.end"
        assert events[-1]["status"] == "failed"
        assert len(sinks) == 1
        assert checked.checkers == 0            # no verdict on a crash

    def test_check_off_attaches_nothing(self):
        checked, events, _ = self.events(lambda: None, check=False)
        assert [e["kind"] for e in events] == ["span.begin", "span.end"]
        assert (checked.violations, checked.checkers,
                checked.events_seen) == ([], 0, 0)
        assert render_invariants(checked)[-1] \
            == "checkers not attached (check=False)."
