"""SweepRunner: deterministic aggregation across worker counts, retry
and process-death accounting, timeouts, and input validation.

The determinism tests are the tentpole's acceptance criterion: the
aggregate ``sweep.json`` and the merged trace must be **byte-identical**
for ``workers=1`` and ``workers=N`` — merge order is the task id, never
completion order.
"""

import hashlib
import json

import pytest

from repro.obs.analytics import load_analytics
from repro.obs.report import check_trace, render_check
from repro.runner import SweepRunner, TaskSpec
from repro.runner.sweep import MAX_ATTEMPTS, TaskResult
from repro.runner.worker import (ANALYTICS_FILENAME, OUTCOME_FILENAME,
                                 TRACE_FILENAME)

CHAOS_CONFIG = {"n": 4, "off_count": 1, "scale": 0.02}


def chaos_specs(count=4):
    return [TaskSpec(task_id=f"chaos-s{seed:03d}", kind="chaos",
                     seed=seed, config=CHAOS_CONFIG)
            for seed in range(count)]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def two_sweeps(tmp_path_factory):
    """The same 4-task chaos sweep at workers=1 and workers=4."""
    specs = chaos_specs()
    d1 = tmp_path_factory.mktemp("sweep-w1")
    d4 = tmp_path_factory.mktemp("sweep-w4")
    r1 = SweepRunner(workers=1).run(specs, d1)
    r4 = SweepRunner(workers=4).run(specs, d4)
    return r1, r4


class TestDeterminism:
    def test_aggregate_byte_identical_across_worker_counts(self,
                                                           two_sweeps):
        r1, r4 = two_sweeps
        assert sha256(r1.aggregate_path) == sha256(r4.aggregate_path)

    def test_merged_trace_byte_identical_across_worker_counts(
            self, two_sweeps):
        r1, r4 = two_sweeps
        assert sha256(r1.merged_trace_path) == sha256(r4.merged_trace_path)

    def test_per_task_traces_byte_identical(self, two_sweeps):
        r1, r4 = two_sweeps
        for task in r1.tasks:
            t1 = r1.out_dir / task.spec.task_id / TRACE_FILENAME
            t4 = r4.out_dir / task.spec.task_id / TRACE_FILENAME
            assert sha256(t1) == sha256(t4), task.spec.task_id

    def test_all_tasks_healthy(self, two_sweeps):
        r1, _ = two_sweeps
        assert r1.ok
        assert r1.counts == {"tasks": 4, "ok": 4, "unhealthy": 0,
                             "failed": 0}

    def test_merged_trace_passes_repro_check(self, two_sweeps):
        r1, _ = two_sweeps
        _text, code = render_check(str(r1.merged_trace_path))
        assert code == 0

    def test_aggregate_lists_tasks_in_id_order(self, two_sweeps):
        r1, _ = two_sweeps
        agg = json.loads(r1.aggregate_path.read_text())
        ids = [t["task"] for t in agg["tasks"]]
        assert ids == sorted(ids) and len(ids) == 4

    def test_outcome_json_matches_returned_outcome(self, two_sweeps):
        """What ``outcome.json`` says of a task agrees with the task's
        own trace: its event count is the trace's line count and its
        violation count is what ``repro check`` finds there."""
        r1, _ = two_sweeps
        for task in r1.tasks:
            task_dir = r1.out_dir / task.spec.task_id
            on_disk = json.loads((task_dir / OUTCOME_FILENAME).read_text())
            trace = task_dir / TRACE_FILENAME
            lines = len(trace.read_text().splitlines())
            assert on_disk["events"] == lines > 0, task.spec.task_id
            assert on_disk["violation_count"] == len(
                check_trace(str(trace)).violations), task.spec.task_id

    def test_analytics_rollup_byte_identical_across_worker_counts(
            self, two_sweeps):
        r1, r4 = two_sweeps
        assert r1.analytics_rollup_path is not None
        assert r4.analytics_rollup_path is not None
        assert sha256(r1.analytics_rollup_path) \
            == sha256(r4.analytics_rollup_path)

    def test_per_task_analytics_byte_identical(self, two_sweeps):
        r1, r4 = two_sweeps
        for task in r1.tasks:
            a1 = r1.out_dir / task.spec.task_id / ANALYTICS_FILENAME
            a4 = r4.out_dir / task.spec.task_id / ANALYTICS_FILENAME
            assert sha256(a1) == sha256(a4), task.spec.task_id

    def test_analytics_rollup_merges_every_task(self, two_sweeps):
        from repro.obs.analytics import ROLLUP_KIND
        r1, _ = two_sweeps
        doc = load_analytics(str(r1.analytics_rollup_path))
        assert doc["kind"] == ROLLUP_KIND
        assert doc["tasks"] == sorted(t.spec.task_id for t in r1.tasks)
        assert doc["latency_bands"]          # at least one flow class

    def test_per_task_analytics_source_is_relative(self, two_sweeps):
        """The document must not bake in the absolute out dir — task
        directories are movable artifacts."""
        r1, _ = two_sweeps
        task_dir = r1.out_dir / r1.tasks[0].spec.task_id
        doc = json.loads((task_dir / ANALYTICS_FILENAME).read_text())
        assert doc["source"] == TRACE_FILENAME

    def test_wall_clock_stays_out_of_the_aggregate(self, two_sweeps):
        r1, _ = two_sweeps
        text = r1.aggregate_path.read_text()
        assert "wall" not in text and "workers" not in text
        info = json.loads((r1.out_dir / "run_info.json").read_text())
        assert info["workers"] == 1 and info["wall_seconds"] >= 0


class TestRetries:
    def test_flaky_task_retried_to_success(self, tmp_path):
        specs = [TaskSpec(task_id="flaky", kind="selftest", seed=1,
                          config={"fail_attempts": 1, "mode": "raise"}),
                 TaskSpec(task_id="steady", kind="selftest", seed=2)]
        result = SweepRunner(workers=2).run(specs, tmp_path)
        assert result.ok and result.retries == 1
        assert result.task("flaky").attempts == 2
        assert result.task("steady").attempts == 1

    def test_exhausted_retries_surface_as_failed_task(self, tmp_path):
        specs = [TaskSpec(task_id="doomed", kind="selftest", seed=1,
                          config={"fail_attempts": 99, "mode": "raise"})]
        result = SweepRunner(workers=1).run(specs, tmp_path)
        doomed = result.task("doomed")
        assert not result.ok
        assert doomed.status == "failed"
        assert doomed.attempts == MAX_ATTEMPTS == 3
        assert doomed.error == ("RuntimeError: selftest: planned failure "
                                "on attempt 3")
        # Never silently dropped: the aggregate lists the failure too.
        agg = json.loads(result.aggregate_path.read_text())
        assert agg["counts"]["failed"] == 1
        assert agg["tasks"][0]["status"] == "failed"

    def test_killed_worker_fails_task_and_spares_sibling(self, tmp_path):
        """A task that kills its own process (os._exit) on attempt 1
        beside a slower healthy sibling: only the killer is charged,
        and the deterministic surface is the same bytes at one and two
        workers.  With a shared pool the crash took the sibling's
        worker down too, and at two workers the sibling was charged a
        second attempt it did not cause."""
        specs = [TaskSpec(task_id="killer", kind="selftest", seed=1,
                          config={"fail_attempts": 1, "mode": "exit"}),
                 TaskSpec(task_id="sibling", kind="selftest", seed=2,
                          config={"delay": 0.5})]
        runs = [SweepRunner(workers=w).run(specs, tmp_path / f"w{w}")
                for w in (1, 2)]
        for result in runs:
            assert result.ok and result.retries == 1
            assert result.task("killer").attempts == 2
            assert result.task("sibling").attempts == 1
        w1, w2 = runs
        assert w1.aggregate_path.read_bytes() \
            == w2.aggregate_path.read_bytes()
        assert w1.merged_trace_path.read_bytes() \
            == w2.merged_trace_path.read_bytes()

    def test_single_worker_kill_accounting_is_deterministic(self,
                                                            tmp_path):
        specs = [TaskSpec(task_id="killer", kind="selftest", seed=1,
                          config={"fail_attempts": 99, "mode": "exit"}),
                 TaskSpec(task_id="after", kind="selftest", seed=2)]
        result = SweepRunner(workers=1).run(specs, tmp_path)
        killer = result.task("killer")
        assert killer.status == "failed"
        assert killer.attempts == MAX_ATTEMPTS
        assert killer.error == "worker process died mid-task (exit code 17)"
        assert result.retries == MAX_ATTEMPTS - 1
        assert result.task("after").status == "ok"
        assert result.task("after").attempts == 1

    def test_timeout_treated_like_a_crash(self, tmp_path):
        specs = [TaskSpec(task_id="slow", kind="selftest", seed=1,
                          config={"fail_attempts": 99, "mode": "hang"})]
        result = SweepRunner(workers=1, task_timeout=0.3).run(
            specs, tmp_path)
        slow = result.task("slow")
        assert slow.status == "failed" and slow.attempts == MAX_ATTEMPTS
        assert slow.error == "task exceeded timeout of 0.3s"

    def test_timeout_charges_only_the_overdue_task(self, tmp_path,
                                                   monkeypatch):
        """The hung attempt is killed and charged; the sibling, started
        once "first" frees its slot and still running at the kill, is
        neither killed nor relaunched (a shared pool was recycled on a
        timeout and every running sibling started over)."""
        launches = []
        launch = SweepRunner._launch

        def record(runner, spec, number, out):
            launches.append((spec.task_id, number))
            return launch(runner, spec, number, out)

        monkeypatch.setattr(SweepRunner, "_launch", record)
        specs = [TaskSpec(task_id="first", kind="selftest", seed=1,
                          config={"delay": 0.8}),
                 TaskSpec(task_id="hung", kind="selftest", seed=2,
                          config={"fail_attempts": 1, "mode": "hang"}),
                 TaskSpec(task_id="sibling", kind="selftest", seed=3,
                          config={"delay": 1.9})]
        result = SweepRunner(workers=2, task_timeout=2.5).run(
            specs, tmp_path)
        assert result.ok and result.retries == 1
        assert launches == [("first", 1), ("hung", 1), ("sibling", 1),
                            ("hung", 2)]
        assert [t.attempts for t in result.tasks] == [1, 2, 1]

    def test_long_error_message_reaches_the_parent(self, tmp_path):
        """An exception message larger than a pipe buffer is read while
        the child is still writing it, so neither side blocks."""
        kind = "k" * 200_000
        result = SweepRunner(workers=1).run(
            [TaskSpec(task_id="loud", kind=kind)], tmp_path)
        task = result.task("loud")
        assert task.status == "failed" and task.attempts == MAX_ATTEMPTS
        assert task.error.startswith("ValueError: unknown experiment kind")
        assert kind in task.error


class TestOutcomes:
    def test_unhealthy_run_flagged_not_failed(self, tmp_path):
        specs = [TaskSpec(task_id="sick", kind="selftest", seed=1,
                          config={"unhealthy": True})]
        result = SweepRunner(workers=1).run(specs, tmp_path)
        assert not result.ok
        assert result.task("sick").status == "unhealthy"
        assert result.task("sick").outcome is not None

    def test_unfinished_three_phase_is_unhealthy_once(self, tmp_path):
        # scale 6 outlasts the 3 600 simulated s.  The worker used to
        # index phase_ends["phase2"] and burn every attempt on the
        # same KeyError.
        specs = [TaskSpec(task_id="long", kind="three-phase", seed=0,
                          config={"mode": "selective", "scale": 6.0})]
        result = SweepRunner(workers=1).run(specs, tmp_path)
        task = result.task("long")
        assert (task.status, task.attempts) == ("unhealthy", 1)
        summary = task.outcome["summary"]
        assert summary["unfinished"] == ["phase2", "phase3"]
        assert list(summary["phase_ends"]) == ["phase1"]

    def test_failed_task_excluded_from_merged_trace(self, tmp_path):
        specs = [TaskSpec(task_id="doomed", kind="selftest", seed=1,
                          config={"fail_attempts": 99, "mode": "raise"}),
                 TaskSpec(task_id="fine", kind="selftest", seed=2)]
        result = SweepRunner(workers=1).run(specs, tmp_path)
        boundaries = [json.loads(line)
                      for line in result.merged_trace_path.read_text()
                      .splitlines() if '"sweep.task"' in line]
        assert [b["task"] for b in boundaries] == ["fine"]

    def test_rollups_fold_only_this_sweeps_documents(self, tmp_path):
        """A second sweep into the same directory in which ``a`` fails
        every attempt: ``a``'s analytics and profile from the first
        sweep are still on disk, and neither rollup may list them."""
        def sweep(config_a):
            return SweepRunner(workers=1, profile=True).run(
                [TaskSpec(task_id="a", kind="selftest", seed=1,
                          config=config_a),
                 TaskSpec(task_id="b", kind="selftest", seed=2)],
                tmp_path)

        first = sweep({})
        assert load_analytics(str(first.analytics_rollup_path))[
            "tasks"] == ["a", "b"]
        second = sweep({"fail_attempts": 99, "mode": "raise"})
        assert second.task("a").status == "failed"
        assert (tmp_path / "a" / ANALYTICS_FILENAME).exists()
        assert load_analytics(str(second.analytics_rollup_path))[
            "tasks"] == ["b"]
        profile = json.loads(second.profile_rollup_path.read_text())
        assert sorted(profile["per_task"]) == ["b"]

    def test_zero_event_task_leaves_no_stale_analytics(self, tmp_path):
        """A task whose final attempt emitted nothing wrote no
        document, so one left by an earlier sweep stays out."""
        first = SweepRunner(workers=1).run(
            [TaskSpec(task_id="a", kind="selftest", seed=1)], tmp_path)
        assert (tmp_path / "a" / ANALYTICS_FILENAME).exists()
        silent = TaskResult(first.task("a").spec, "ok", 1,
                            dict(first.task("a").outcome, events=0), None)
        assert SweepRunner._write_analytics_rollup(
            [silent], tmp_path) is None

    def test_events_in_window_counted_when_window_set(self, tmp_path):
        result = SweepRunner(workers=1, since=0.0, until=1e9).run(
            chaos_specs(1), tmp_path)
        agg = json.loads(result.aggregate_path.read_text())
        entry = agg["tasks"][0]
        assert entry["events_in_window"] > 0
        assert entry["events_in_window"] <= entry["events"]


class TestValidation:
    def test_empty_specs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            SweepRunner().run([], tmp_path)

    def test_duplicate_task_ids_rejected(self, tmp_path):
        specs = [TaskSpec(task_id="dup", kind="selftest"),
                 TaskSpec(task_id="dup", kind="selftest", seed=2)]
        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner().run(specs, tmp_path)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SweepRunner(workers=0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout must be > 0"):
            SweepRunner(task_timeout=0.0)

    @pytest.mark.parametrize("timeout", [-1.0, float("nan"), float("inf")])
    def test_non_finite_or_negative_timeout_rejected(self, timeout):
        # nan used to pass `<= 0`, never fire, and spin the parent.
        with pytest.raises(ValueError, match="task_timeout must be > 0 "
                                             "and finite"):
            SweepRunner(task_timeout=timeout)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="empty time window"):
            SweepRunner(since=5.0, until=2.0)

    def test_unknown_kind_is_failed_task_not_crash(self, tmp_path):
        specs = [TaskSpec(task_id="mystery", kind="nope")]
        result = SweepRunner(workers=1).run(specs, tmp_path)
        task = result.task("mystery")
        assert task.status == "failed"
        assert "unknown experiment kind" in task.error


class TestProfiledSweep:
    """``profile=True``: per-task wall-clock profiles plus a rollup,
    with zero effect on the deterministic surface."""

    @pytest.fixture(scope="class")
    def profiled(self, tmp_path_factory):
        specs = chaos_specs(2)
        plain_dir = tmp_path_factory.mktemp("sweep-plain")
        prof_dir = tmp_path_factory.mktemp("sweep-prof")
        plain = SweepRunner(workers=1).run(specs, plain_dir)
        prof = SweepRunner(workers=2, profile=True).run(specs, prof_dir)
        return plain, prof

    def test_per_task_profiles_written(self, profiled):
        from repro.runner.worker import PROFILE_FILENAME
        _, prof = profiled
        for task in prof.tasks:
            doc = json.loads(
                (prof.out_dir / task.spec.task_id / PROFILE_FILENAME)
                .read_text())
            assert doc["kind"] == "repro.profile"
            assert doc["meta"]["task"] == task.spec.task_id

    def test_rollup_written_and_keyed_by_task_id(self, profiled):
        _, prof = profiled
        assert prof.profile_rollup_path is not None
        doc = json.loads(prof.profile_rollup_path.read_text())
        assert doc["kind"] == "repro.profile"
        assert sorted(doc["per_task"]) == ["chaos-s000", "chaos-s001"]
        assert [c["name"] for c in doc["root"]["children"]] \
            == ["chaos-s000", "chaos-s001"]
        assert doc["flat"]            # summed component table

    def test_deterministic_surface_unchanged_by_profiling(self, profiled):
        plain, prof = profiled
        assert sha256(plain.aggregate_path) == sha256(prof.aggregate_path)
        assert sha256(plain.merged_trace_path) \
            == sha256(prof.merged_trace_path)

    def test_unprofiled_sweep_has_no_rollup(self, two_sweeps):
        r1, _ = two_sweeps
        assert r1.profile_rollup_path is None
