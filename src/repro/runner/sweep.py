"""The process-pool sweep runner with deterministic aggregation.

A *sweep* is a set of independent seeded runs — exactly the shape of
the paper's §V evaluation grids (multi-seed robustness checks, the
chaos property matrix, the four-policy trace analyses).  The runner
fans the tasks across a ``concurrent.futures.ProcessPoolExecutor`` and
merges results **by task id, never by completion order**, so the
aggregate report is byte-identical for ``--workers 1`` and
``--workers N``:

* every task captures its own JSONL trace, metrics snapshot and
  outcome into ``<out>/<task_id>/`` (see :mod:`repro.runner.worker`);
* the aggregate ``sweep.json`` contains only simulation-derived
  values, dumped with sorted keys in task-id order — wall-clock
  timings and worker counts live in the separate ``run_info.json``,
  which is *not* part of the deterministic surface;
* ``merged.jsonl`` concatenates the per-task traces in task-id order,
  separated by ``sweep.task`` boundary events that
  :class:`~repro.obs.invariants.InvariantSuite` recognises — so
  ``repro check merged.jsonl`` validates every run in one pass;
* each worker also writes a per-task ``analytics.json``
  (:mod:`repro.obs.analytics`), and the runner merges them — again by
  task id — into ``analytics_rollup.json``: per-bin min/median/max
  bands and latency-percentile bands across seeds, readable with
  ``repro timeline analytics_rollup.json``.

Failure handling reuses :class:`~repro.faults.retry.RetryPolicy`: a
task that raises, times out, or takes its worker process down with it
is re-enqueued with deterministic backoff until the policy's launch
budget is spent, after which it is surfaced as a *failed* task in the
report — never silently dropped.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.retry import RetryPolicy
from repro.obs.analytics import (AnalyticsError, dump_analytics,
                                 load_analytics, merge_analytics)
from repro.obs.invariants import SWEEP_BOUNDARY_KIND
from repro.obs.profile import PROFILE_VERSION, ProfileError, load_profile
from repro.obs.stats import check_window, event_in_window
from repro.obs.trace import read_jsonl
from repro.runner import worker as worker_mod
from repro.runner.spec import TaskSpec

__all__ = [
    "SweepRunner",
    "SweepResult",
    "TaskResult",
    "render_sweep_report",
    "AGGREGATE_FILENAME",
    "MERGED_TRACE_FILENAME",
    "RUN_INFO_FILENAME",
    "PROFILE_ROLLUP_FILENAME",
    "ANALYTICS_ROLLUP_FILENAME",
]

AGGREGATE_FILENAME = "sweep.json"
MERGED_TRACE_FILENAME = "merged.jsonl"
RUN_INFO_FILENAME = "run_info.json"
PROFILE_ROLLUP_FILENAME = "profile_rollup.json"
ANALYTICS_ROLLUP_FILENAME = "analytics_rollup.json"

#: Cap on the idle sleep while every task is backing off (wall
#: seconds) — bounds the worst case should the clock readings jitter.
_MAX_IDLE_SLEEP = 1.0


@dataclass
class TaskResult:
    """Final state of one task after all retries."""

    spec: TaskSpec
    #: ``"ok"`` | ``"unhealthy"`` (ran, but violations / degraded) |
    #: ``"failed"`` (never produced an outcome within the retry budget).
    status: str
    #: Launches consumed (1 = clean first run).
    attempts: int
    #: The worker's outcome dict for tasks that finished.
    outcome: Optional[Dict[str, object]] = None
    #: Last error string for failed tasks.
    error: Optional[str] = None

    @property
    def healthy(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepResult:
    """Everything one sweep produced, merge-keyed by task id."""

    out_dir: Path
    tasks: List[TaskResult]          # sorted by task_id
    workers: int
    wall_seconds: float
    retries: int
    aggregate_path: Path
    merged_trace_path: Path
    #: Sweep-level hotspot rollup (wall-clock, quarantined like
    #: run_info.json); None unless the sweep profiled its tasks.
    profile_rollup_path: Optional[Path] = None
    #: Cross-task ``repro.analytics.rollup`` document (per-bin bands
    #: and latency-percentile bands across seeds), merged by task id —
    #: byte-identical for any worker count.  None when no task
    #: produced analytics.
    analytics_rollup_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        """Every task ran and ended healthy."""
        return all(t.healthy for t in self.tasks)

    @property
    def counts(self) -> Dict[str, int]:
        out = {"tasks": len(self.tasks), "ok": 0, "unhealthy": 0,
               "failed": 0}
        for t in self.tasks:
            out[t.status] += 1
        return out

    def task(self, task_id: str) -> TaskResult:
        for t in self.tasks:
            if t.spec.task_id == task_id:
                return t
        raise KeyError(f"no task {task_id!r} in this sweep")


class SweepRunner:
    """Fan independent tasks across a process pool, deterministically.

    Parameters
    ----------
    workers:
        Pool size.  ``workers=1`` still runs tasks in a child process,
        so the execution environment — and therefore every byte of the
        output — is identical to a parallel run.
    retry:
        Backoff/quarantine policy for crashed or timed-out tasks; the
        default allows three launches per task.
    task_timeout:
        Per-launch wall-clock budget in seconds.  A task exceeding it
        is treated like a crashed attempt (the pool is recycled to
        reclaim the stuck worker).
    since / until:
        Optional half-open ``[since, until)`` simulation-time window
        for the per-task ``events_in_window`` counts of the aggregate
        — the same predicate and guard as ``repro stats``.
    profile:
        Run every task with the instrumentation profiler attached:
        each task dir gains a ``profile.json`` and the sweep writes a
        ``profile_rollup.json`` aggregating the per-task hotspot maps
        **by task id** (never completion order).  Wall-clock only —
        the deterministic artefacts (``sweep.json``,
        ``merged.jsonl``, traces) are byte-identical either way.
    """

    def __init__(self, workers: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 task_timeout: Optional[float] = None,
                 since: Optional[float] = None,
                 until: Optional[float] = None,
                 profile: bool = False) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        check_window(since, until)
        self.workers = int(workers)
        self.retry = retry if retry is not None else RetryPolicy(
            base_delay=0.1, max_delay=2.0, max_attempts=3)
        self.task_timeout = task_timeout
        self.since = since
        self.until = until
        self.profile = bool(profile)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TaskSpec], out_dir) -> SweepResult:
        """Execute every spec and write the aggregate artefacts."""
        specs = list(specs)
        if not specs:
            raise ValueError("sweep needs at least one task")
        ids = [s.task_id for s in specs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate task ids: {', '.join(dupes)}")

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.monotonic()
        results, retries = self._execute(specs, out)
        wall = time.monotonic() - t0

        ordered = [results[tid] for tid in sorted(results)]
        aggregate_path = self._write_aggregate(ordered, out)
        merged_path = self._write_merged_trace(ordered, out)
        rollup_path = (self._write_profile_rollup(ordered, out)
                       if self.profile else None)
        analytics_path = self._write_analytics_rollup(ordered, out)
        result = SweepResult(
            out_dir=out, tasks=ordered, workers=self.workers,
            wall_seconds=wall, retries=retries,
            aggregate_path=aggregate_path,
            merged_trace_path=merged_path,
            profile_rollup_path=rollup_path,
            analytics_rollup_path=analytics_path)
        # Run facts that legitimately differ between runs (wall clock,
        # pool size) stay out of the deterministic aggregate.
        (out / RUN_INFO_FILENAME).write_text(json.dumps(
            {"workers": self.workers,
             "wall_seconds": round(wall, 3),
             "retries": retries},
            indent=2, sort_keys=True) + "\n")
        return result

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor) -> None:
        """Tear a pool down even if a worker is stuck mid-task."""
        processes = getattr(executor, "_processes", None) or {}
        for proc in list(processes.values()):
            proc.terminate()
        # The workers are dead or dying, so the join is prompt; skipping
        # it leaves the pool's management thread to trip over closed
        # pipes at interpreter exit.
        executor.shutdown(wait=True, cancel_futures=True)

    def _execute(self, specs: Sequence[TaskSpec], out: Path
                 ) -> Tuple[Dict[str, TaskResult], int]:
        #: (spec, attempt, earliest wall time to launch)
        pending: List[Tuple[TaskSpec, int, float]] = [
            (spec, 1, 0.0) for spec in specs]
        running: Dict[Future, Tuple[TaskSpec, int, float]] = {}
        results: Dict[str, TaskResult] = {}
        retries = 0
        executor = self._new_executor()

        def fail_attempt(spec: TaskSpec, attempt: int, error: str) -> None:
            nonlocal retries
            if self.retry.exhausted(attempt):
                results[spec.task_id] = TaskResult(
                    spec=spec, status="failed", attempts=attempt,
                    error=error)
            else:
                retries += 1
                delay = self.retry.delay(attempt, key=spec.task_id)
                pending.append(
                    (spec, attempt + 1, time.monotonic() + delay))

        def settle_broken(spec: TaskSpec, attempt: int) -> None:
            # A dead worker poisons the pool: EVERY in-flight future
            # raises, and the culprit is indistinguishable from
            # collateral.  A task whose function actually completed
            # left its outcome.json behind, though — recover that
            # instead of charging it for a crash it didn't cause.
            outcome = self._recover_outcome(out, spec, attempt)
            if outcome is not None:
                status = "ok" if outcome.get("healthy") else "unhealthy"
                results[spec.task_id] = TaskResult(
                    spec=spec, status=status, attempts=attempt,
                    outcome=outcome)
            else:
                fail_attempt(spec, attempt,
                             "worker process died mid-task")

        try:
            while pending or running:
                now = time.monotonic()
                # Launch due work, keeping at most `workers` in flight
                # so the per-task timeout clock starts at true launch.
                due = [p for p in pending if p[2] <= now]
                due.sort(key=lambda p: (p[2], p[0].task_id))
                for item in due:
                    if len(running) >= self.workers:
                        break
                    pending.remove(item)
                    spec, attempt, _ = item
                    deadline = (now + self.task_timeout
                                if self.task_timeout else float("inf"))
                    future = executor.submit(
                        worker_mod.run_task, spec.to_dict(), str(out),
                        attempt, self.profile)
                    running[future] = (spec, attempt, deadline)

                if not running:
                    # Everything is backing off; sleep to the earliest.
                    wake = min(p[2] for p in pending)
                    time.sleep(max(0.0, min(wake - now,
                                            _MAX_IDLE_SLEEP)))
                    continue

                done, _ = wait(
                    list(running),
                    timeout=self._completion_wait_timeout(
                        pending, running, time.monotonic()),
                    return_when=FIRST_COMPLETED)
                pool_broken = False
                for future in done:
                    spec, attempt, _ = running.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        settle_broken(spec, attempt)
                        pool_broken = True
                    except Exception as exc:   # task raised in-worker
                        fail_attempt(
                            spec, attempt,
                            f"{type(exc).__name__}: {exc}")
                    else:
                        status = ("ok" if outcome.get("healthy")
                                  else "unhealthy")
                        results[spec.task_id] = TaskResult(
                            spec=spec, status=status, attempts=attempt,
                            outcome=outcome)
                if pool_broken:
                    # Anything still in flight died with the pool; give
                    # each the same recover-or-charge treatment and
                    # start a fresh pool.
                    for future, (spec, attempt, _) in list(running.items()):
                        running.pop(future)
                        settle_broken(spec, attempt)
                    self._kill_executor(executor)
                    executor = self._new_executor()
                    continue

                # Per-task timeouts: a stuck worker cannot be cancelled
                # through the executor API, so recycle the pool.
                if self.task_timeout is not None:
                    now = time.monotonic()
                    if any(dl <= now for _, _, dl in running.values()):
                        for future, (spec, attempt, dl) in \
                                list(running.items()):
                            running.pop(future)
                            if dl <= now:
                                fail_attempt(
                                    spec, attempt,
                                    f"task exceeded timeout of "
                                    f"{self.task_timeout:g}s")
                            else:
                                pending.append((spec, attempt, 0.0))
                        self._kill_executor(executor)
                        executor = self._new_executor()
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        return results, retries

    @staticmethod
    def _completion_wait_timeout(pending, running, now) -> Optional[float]:
        """How long the completion wait may block, or ``None`` for
        "until a future completes".

        The wait used to poll on a fixed 50 ms interval — a busy-spin
        whenever the pool was saturated with long tasks.  Blocking
        indefinitely is usually right (only a completion can free a
        slot), except for two wall-clock commitments that must be able
        to fire without one:

        * a backed-off retry whose wake time is still in the future —
          a *due* retry needs a free slot anyway, so it never bounds
          the wait (waking early for it would be the busy-spin again);
        * a running task's per-launch deadline (``task_timeout``).

        The bound is the earliest of those, floored at zero.
        """
        bounds = [wake for (_spec, _attempt, wake) in pending
                  if wake > now]
        bounds.extend(deadline for (_spec, _attempt, deadline)
                      in running.values()
                      if deadline != float("inf"))
        if not bounds:
            return None
        return max(0.0, min(bounds) - now)

    @staticmethod
    def _recover_outcome(out: Path, spec: TaskSpec, attempt: int
                         ) -> Optional[Dict[str, object]]:
        """The outcome a lost future would have returned, if the task
        function finished before its pool died (outcome.json is the
        worker's last write)."""
        path = out / spec.task_id / worker_mod.OUTCOME_FILENAME
        try:
            outcome = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if outcome.get("attempts") != attempt:
            return None             # stale file from an earlier attempt
        return outcome

    # ------------------------------------------------------------------
    # aggregation — task-id order, simulation-derived values only
    # ------------------------------------------------------------------
    def _task_entry(self, result: TaskResult, out: Path
                    ) -> Dict[str, object]:
        if result.outcome is None:
            return {
                "task": result.spec.task_id,
                "kind": result.spec.kind,
                "seed": result.spec.seed,
                "status": "failed",
                "healthy": False,
                "attempts": result.attempts,
                "error": result.error,
            }
        entry = dict(result.outcome)
        if self.since is not None or self.until is not None:
            entry["events_in_window"] = self._count_in_window(
                out / result.spec.task_id / worker_mod.TRACE_FILENAME)
        return entry

    def _count_in_window(self, trace_path: Path) -> int:
        """Events in the half-open window ``[since, until)`` — the
        same :func:`~repro.obs.stats.event_in_window` predicate as
        ``repro stats`` / ``report`` / ``timeline``."""
        if not trace_path.exists():
            return 0
        return sum(1 for event in read_jsonl(str(trace_path))
                   if event_in_window(event, self.since, self.until))

    def _write_aggregate(self, ordered: List[TaskResult], out: Path
                         ) -> Path:
        counts = {"tasks": len(ordered), "ok": 0, "unhealthy": 0,
                  "failed": 0}
        for t in ordered:
            counts[t.status] += 1
        aggregate = {
            "kind": "repro.sweep",
            "window": {"since": self.since, "until": self.until},
            "counts": counts,
            "healthy": counts["ok"] == counts["tasks"],
            "tasks": [self._task_entry(t, out) for t in ordered],
        }
        path = out / AGGREGATE_FILENAME
        path.write_text(json.dumps(aggregate, indent=2, sort_keys=True)
                        + "\n")
        return path

    @staticmethod
    def _write_merged_trace(ordered: List[TaskResult], out: Path) -> Path:
        """Concatenate per-task traces in task-id order, with a
        ``sweep.task`` boundary event ahead of each run so the
        invariant suite resets between tasks.  Failed tasks are
        skipped (their last attempt's trace may be truncated
        mid-flight); they are accounted for in the aggregate instead.
        """
        path = out / MERGED_TRACE_FILENAME
        with open(path, "w", encoding="utf-8") as fh:
            for result in ordered:
                if result.status == "failed":
                    continue
                boundary = {"kind": SWEEP_BOUNDARY_KIND, "t": 0.0,
                            "task": result.spec.task_id}
                fh.write(json.dumps(boundary, sort_keys=True,
                                    separators=(",", ":")) + "\n")
                trace = (out / result.spec.task_id
                         / worker_mod.TRACE_FILENAME)
                if trace.exists():
                    fh.write(trace.read_text(encoding="utf-8"))
        return path

    @staticmethod
    def _write_profile_rollup(ordered: List[TaskResult], out: Path
                              ) -> Path:
        """Aggregate the per-task ``profile.json`` documents by task id
        into a sweep-level ``repro.profile`` document: each task's
        frame tree becomes a child named by its task id, and the flat
        hotspot maps are summed across tasks — so ``repro profile``
        reads the rollup directly.  Wall-clock data: quarantined from
        the deterministic surface, like ``run_info.json``."""
        flat: Dict[str, Dict[str, float]] = {}
        children: List[Dict[str, object]] = []
        per_task: Dict[str, Dict[str, object]] = {}
        total_wall = total_sim = 0.0
        for result in ordered:
            try:
                doc = load_profile(str(out / result.spec.task_id
                                       / worker_mod.PROFILE_FILENAME))
            except ProfileError:
                continue              # failed task: no profile to fold in
            wall = float(doc["total_wall_s"])
            sim = float(doc["total_sim_s"])
            total_wall += wall
            total_sim += sim
            per_task[result.spec.task_id] = {
                "total_wall_s": wall, "total_sim_s": sim}
            root = dict(doc["root"])
            root["name"] = result.spec.task_id
            children.append(root)
            for name, agg in sorted(doc["flat"].items()):
                slot = flat.setdefault(name, {
                    "calls": 0, "wall_s": 0.0, "self_s": 0.0,
                    "sim_s": 0.0})
                for key in slot:
                    slot[key] += agg[key]
        rollup = {
            "kind": "repro.profile",
            "version": PROFILE_VERSION,
            "command": "sweep",
            "total_wall_s": total_wall,
            "total_sim_s": total_sim,
            "unattributed_s": 0.0,
            "root": {"name": "run", "calls": len(children),
                     "wall_s": total_wall, "self_s": 0.0,
                     "sim_s": 0.0, "children": children},
            "flat": flat,
            "per_task": per_task,
        }
        path = out / PROFILE_ROLLUP_FILENAME
        path.write_text(json.dumps(rollup, indent=2, sort_keys=True)
                        + "\n")
        return path

    @staticmethod
    def _write_analytics_rollup(ordered: List[TaskResult], out: Path
                                ) -> Optional[Path]:
        """Merge the per-task ``analytics.json`` documents (written by
        the worker from each task's own trace) into one
        ``repro.analytics.rollup``, keyed and ordered **by task id**
        so the bytes never depend on the worker count.  Tasks without
        a document (failed, or zero-event traces) are skipped; with no
        documents at all, no rollup is written."""
        docs = {}
        for result in ordered:
            p = (out / result.spec.task_id
                 / worker_mod.ANALYTICS_FILENAME)
            if not p.exists():
                continue
            try:
                docs[result.spec.task_id] = load_analytics(str(p))
            except AnalyticsError:
                continue          # half-written file from a dead worker
        if not docs:
            return None
        rollup = merge_analytics(docs)
        path = out / ANALYTICS_ROLLUP_FILENAME
        dump_analytics(rollup, str(path))
        return path


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render_sweep_report(result: SweepResult) -> str:
    """Human-readable sweep summary (the ``repro sweep`` stdout)."""
    counts = result.counts
    lines = [
        "# sweep report",
        "",
        f"- tasks: {counts['tasks']} "
        f"(ok {counts['ok']}, unhealthy {counts['unhealthy']}, "
        f"failed {counts['failed']})",
        f"- workers: {result.workers}; wall {result.wall_seconds:.1f} s; "
        f"retries {result.retries}",
        f"- aggregate: {result.aggregate_path}",
        f"- merged trace: {result.merged_trace_path}",
    ]
    if result.analytics_rollup_path is not None:
        lines.append(
            f"- analytics rollup: {result.analytics_rollup_path}")
    lines += [
        "",
        "| task | kind | seed | status | attempts | events | violations |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for t in result.tasks:
        events = "-" if t.outcome is None else t.outcome.get("events", 0)
        viol = ("-" if t.outcome is None
                else t.outcome.get("violation_count", 0))
        lines.append(
            f"| {t.spec.task_id} | {t.spec.kind} | {t.spec.seed} "
            f"| {t.status} | {t.attempts} | {events} | {viol} |")
    problems = [t for t in result.tasks if not t.healthy]
    if problems:
        lines += ["", "## problems", ""]
        for t in problems:
            if t.status == "failed":
                lines.append(f"- {t.spec.task_id}: FAILED after "
                             f"{t.attempts} attempt(s): {t.error}")
            else:
                detail = []
                if t.outcome and t.outcome.get("violation_count"):
                    detail.append(
                        f"{t.outcome['violation_count']} invariant "
                        f"violation(s)")
                lines.append(f"- {t.spec.task_id}: unhealthy"
                             + (f" ({'; '.join(detail)})" if detail
                                else ""))
    verdict = "OK" if result.ok else "DEGRADED"
    lines += ["", f"verdict: **{verdict}**"]
    return "\n".join(lines)
