"""The sweep runner: one process per task attempt, deterministic
aggregation.

A *sweep* is a set of independent seeded runs — exactly the shape of
the paper's §V evaluation grids (multi-seed robustness checks, the
chaos property matrix, the four-policy trace analyses).  The runner
starts one ``multiprocessing.Process`` per task attempt, at most
``workers`` at a time, and merges results **by task id, never by
completion order**, so the aggregate report is byte-identical for
``--workers 1`` and ``--workers N``:

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

An attempt that raises, exits without leaving its outcome, or outlives
``task_timeout`` (it is killed) is charged to its own task alone: no
other process shares its fate.  The task goes to the back of the queue
at once — it is a pure function of its spec, so waiting cannot help —
until it has had :data:`MAX_ATTEMPTS` launches, after which it is
surfaced as a *failed* task in the report, never silently dropped.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.faults.plan import require_periods
from repro.obs.analytics import (dump_analytics, load_analytics,
                                 merge_analytics)
from repro.obs.invariants import SWEEP_BOUNDARY_KIND
from repro.obs.profile import PROFILE_VERSION, load_profile
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
    "MAX_ATTEMPTS",
]

AGGREGATE_FILENAME = "sweep.json"
MERGED_TRACE_FILENAME = "merged.jsonl"
RUN_INFO_FILENAME = "run_info.json"
PROFILE_ROLLUP_FILENAME = "profile_rollup.json"
ANALYTICS_ROLLUP_FILENAME = "analytics_rollup.json"

#: Launches per task before it is reported failed.
MAX_ATTEMPTS = 3


def _counts(tasks: Sequence["TaskResult"]) -> Dict[str, int]:
    out = {"tasks": len(tasks), "ok": 0, "unhealthy": 0, "failed": 0}
    for t in tasks:
        out[t.status] += 1
    return out


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
        return _counts(self.tasks)

    def task(self, task_id: str) -> TaskResult:
        for t in self.tasks:
            if t.spec.task_id == task_id:
                return t
        raise KeyError(f"no task {task_id!r} in this sweep")


def _attempt_main(writer: Connection, spec_dict: Dict[str, object],
                  out_dir: str, attempt: int, profile: bool) -> None:
    """One task attempt's process body: the outcome goes to
    ``outcome.json``, an exception up the pipe as ``Type: message``."""
    try:
        worker_mod.run_task(spec_dict, out_dir, attempt, profile)
    except Exception as exc:
        writer.send(f"{type(exc).__name__}: {exc}")


@dataclass
class _Attempt:
    """One launch of one task, in a process of its own."""

    spec: TaskSpec
    number: int
    process: multiprocessing.Process
    #: ``time.monotonic()`` past which the process is killed.
    deadline: float
    #: Where the child reports an exception; None once read.
    reader: Optional[Connection]
    error: Optional[str] = None

    def read_report(self) -> None:
        """Take the child's message, or the end of the pipe if it sent
        none.  Read as soon as it is ready, a long message cannot block
        the child."""
        try:
            self.error = self.reader.recv()
        except EOFError:
            pass
        self.reader.close()
        self.reader = None

    def finish(self, out: Path) -> Optional[Dict[str, object]]:
        """Reap the process and return this attempt's outcome, or None
        with :attr:`error` set (an error set before, a kill's, stands)."""
        self.process.join()
        if self.reader is not None:
            self.read_report()
        code = self.process.exitcode
        self.process.close()
        path = out / self.spec.task_id / worker_mod.OUTCOME_FILENAME
        if self.error is None and code == 0 and path.exists():
            outcome = json.loads(path.read_text())
            if outcome["attempts"] == self.number:
                return outcome
        self.error = (self.error or
                      f"worker process died mid-task (exit code {code})")
        return None


class SweepRunner:
    """Run independent tasks in child processes, deterministically.

    Parameters
    ----------
    workers:
        Most task processes alive at once (>= 1).  ``workers=1`` still
        runs each attempt in a child process, so the execution
        environment — and therefore every byte of the output — is
        identical to a parallel run.
    task_timeout:
        Per-launch wall-clock budget in seconds (finite, > 0).  An
        attempt exceeding it is killed and charged one attempt.
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
                 task_timeout: Optional[float] = None,
                 since: Optional[float] = None,
                 until: Optional[float] = None,
                 profile: bool = False) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        if task_timeout is not None:
            require_periods(task_timeout=task_timeout)
        check_window(since, until)
        self.workers = int(workers)
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
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            raise ValueError(f"duplicate task ids: {', '.join(dupes)}")

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.monotonic()
        results = self._execute(specs, out)
        wall = time.monotonic() - t0

        ordered = [results[tid] for tid in sorted(results)]
        retries = sum(t.attempts - 1 for t in ordered)
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
        # worker count) stay out of the deterministic aggregate.
        (out / RUN_INFO_FILENAME).write_text(json.dumps(
            {"workers": self.workers,
             "wall_seconds": round(wall, 3),
             "retries": retries},
            indent=2, sort_keys=True) + "\n")
        return result

    # ------------------------------------------------------------------
    # scheduling — one process per task attempt
    # ------------------------------------------------------------------
    def _launch(self, spec: TaskSpec, number: int, out: Path) -> _Attempt:
        reader, writer = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_attempt_main,
            args=(writer, spec.to_dict(), str(out), number, self.profile))
        process.start()
        writer.close()            # the child holds the only writing end
        return _Attempt(spec, number, process, time.monotonic()
                        + (self.task_timeout or math.inf), reader)

    def _execute(self, specs: Sequence[TaskSpec], out: Path
                 ) -> Dict[str, TaskResult]:
        queue = deque((spec, 1) for spec in specs)
        running: List[_Attempt] = []
        results: Dict[str, TaskResult] = {}
        try:
            while queue or running:
                while queue and len(running) < self.workers:
                    running.append(self._launch(*queue.popleft(), out))
                due = min(run.deadline for run in running) - time.monotonic()
                ready = wait(
                    [run.process.sentinel for run in running]
                    + [run.reader for run in running if run.reader],
                    timeout=None if due == math.inf else max(0.0, due))
                now = time.monotonic()
                for run in list(running):
                    if run.reader in ready:
                        run.read_report()
                    if run.process.sentinel in ready:
                        outcome = run.finish(out)
                    elif run.deadline <= now:
                        run.process.kill()
                        run.error = (f"task exceeded timeout of "
                                     f"{self.task_timeout:g}s")
                        outcome = run.finish(out)
                    else:
                        continue
                    running.remove(run)
                    if outcome is None and run.number < MAX_ATTEMPTS:
                        queue.append((run.spec, run.number + 1))
                    else:
                        results[run.spec.task_id] = TaskResult(
                            run.spec,
                            outcome["status"] if outcome else "failed",
                            run.number, outcome, run.error)
        finally:
            for run in running:
                run.process.kill()
                run.finish(out)
        return results

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
            # The predicate of repro stats / report / timeline.
            trace = out / result.spec.task_id / worker_mod.TRACE_FILENAME
            entry["events_in_window"] = sum(
                1 for event in read_jsonl(str(trace))
                if event_in_window(event, self.since, self.until))
        return entry

    def _write_aggregate(self, ordered: List[TaskResult], out: Path
                         ) -> Path:
        counts = _counts(ordered)
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
                fh.write((out / result.spec.task_id
                          / worker_mod.TRACE_FILENAME)
                         .read_text(encoding="utf-8"))
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
            if result.outcome is None:
                continue      # failed: any profile there is a stale one
            doc = load_profile(str(out / result.spec.task_id
                                   / worker_mod.PROFILE_FILENAME))
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
        so the bytes never depend on the worker count.  Only documents
        this sweep's final attempts wrote are read: failed tasks and
        zero-event traces (no document) are skipped, whatever an earlier
        sweep into the same directory left there.  With no documents at
        all, no rollup is written."""
        docs = {
            result.spec.task_id: load_analytics(str(
                out / result.spec.task_id / worker_mod.ANALYTICS_FILENAME))
            for result in ordered
            if result.outcome is not None and result.outcome["events"]}
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
