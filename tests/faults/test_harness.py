"""The chaos harness end to end: the crash-mid-reintegration
acceptance scenario, byte-identical replay, and the report."""

import hashlib
import io

import pytest

from repro.faults.harness import ChaosResult, render_chaos_report, run_chaos
from repro.faults.plan import FaultPlan
from repro.obs import OBS
from repro.obs.trace import JSONLSink


@pytest.fixture(scope="module")
def result():
    """One small seed-7 run shared by the assertions below (~1 s)."""
    return run_chaos(seed=7, scale=0.05)


class TestAcceptanceScenario:
    def test_run_ends_healthy(self, result):
        assert result.violations == []
        assert result.ok

    def test_crash_preempts_then_work_is_reenqueued_not_dropped(
            self, result):
        """The tentpole acceptance check: the triggered crash lands
        mid-reintegration, the transfer is interrupted (partial bytes
        wasted), and the dirty entries survive to be drained — nothing
        lost, backlog zero at the end."""
        assert result.transfers["interrupted"] >= 1
        assert result.transfers["retries"] >= 1
        assert sum(result.wasted_bytes.values()) > 0
        assert result.lost_objects == []
        assert result.degraded_objects == []
        assert result.dirty_backlog == 0

    def test_faults_all_fired(self, result):
        kinds = [f["kind"] for f in result.faults]
        assert "crash" in kinds and "repair" in kinds
        assert "slow_disk.start" in kinds and "link_loss.start" in kinds

    def test_final_audit_fully_replicated(self, result):
        assert result.final_audit["label"] == "final"
        assert result.final_audit["lost"] == 0
        assert result.final_audit["under_replicated"] == 0
        assert result.final_audit["quarantined"] == 0

    def test_three_phases_completed(self, result):
        assert set(result.phase_ends) == {"phase1", "phase2", "phase3"}

    def test_checkers_were_attached_and_fed(self, result):
        assert result.checkers == 14
        assert result.events_seen > 0


class TestDeterminism:
    @staticmethod
    def _traced_digest(seed):
        OBS.reset()
        buf = io.StringIO()
        sink = OBS.bus.attach(JSONLSink(buf))
        try:
            run_chaos(seed=seed, scale=0.05, check=False)
        finally:
            OBS.bus.detach(sink)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    def test_same_seed_byte_identical_trace(self):
        assert self._traced_digest(7) == self._traced_digest(7)

    def test_different_seed_different_trace(self):
        assert self._traced_digest(7) != self._traced_digest(8)


class TestParameterValidation:
    def test_off_count_bounds(self):
        with pytest.raises(ValueError, match="off_count"):
            run_chaos(n=10, off_count=10)

    def test_phase2_must_hold_replicas(self):
        with pytest.raises(ValueError, match="replicas"):
            run_chaos(n=4, replicas=2, off_count=3)

    @pytest.mark.parametrize("name", ["audit_every"])
    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf")])
    def test_periods_must_be_positive_and_finite(self, name, value):
        # audit_every <= 0 used to be accepted and audit every tick.
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            run_chaos(**{name: value})

    def test_plan_ranks_validated(self):
        plan = FaultPlan.three_phase_default(seed=1, n=25, off_count=8)
        with pytest.raises(ValueError, match="rank"):
            run_chaos(n=10, plan=plan)


class TestReport:
    def test_report_sections(self, result):
        report = render_chaos_report(result)
        for heading in ("# chaos report", "## fault timeline",
                        "## transfers", "## replication audits",
                        "## invariants", "## outcome"):
            assert heading in report
        assert "verdict: **OK**" in report
        assert "all 14 checkers hold" in report

    def test_check_false_skips_checkers(self):
        result = run_chaos(seed=7, scale=0.02, check=False)
        assert result.checkers == 0
        report = render_chaos_report(result)
        assert "checkers not attached" in report

    def test_degraded_verdict(self):
        bad = ChaosResult(seed=1, n=10, replicas=2, scale=0.1,
                          duration=10.0, lost_objects=[5])
        assert not bad.ok
        assert "verdict: **DEGRADED**" in render_chaos_report(bad)
