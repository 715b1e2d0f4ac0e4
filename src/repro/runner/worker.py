"""Worker-side task execution: what runs inside each task process.

:func:`run_task` is what every process the
:class:`~repro.runner.sweep.SweepRunner` starts runs, once per task
attempt.  It is a **pure function of the spec** (plus the attempt
ordinal): it resets the process-wide observability runtime, routes the
run's trace into the task's own directory, executes the experiment
with a live :class:`~repro.obs.invariants.CheckerSink` attached,
snapshots the metrics registry, and writes a structured, JSON-clean
outcome dict to ``outcome.json`` last — the parent reads it from
there.  Nothing in the outcome depends on wall-clock time or on which
process ran it, which is what lets the parent merge results by task id
into a byte-identical aggregate.

Per-run directory layout (under the sweep's ``--out DIR``)::

    <task_id>/trace.jsonl     the run's full JSONL trace
    <task_id>/metrics.json    metrics-registry snapshot
    <task_id>/analytics.json  per-task repro.analytics document
    <task_id>/outcome.json    the outcome dict, written last

Experiment kinds are looked up in :data:`EXPERIMENTS`; registering a
new kind is one entry mapping ``kind -> fn(spec, attempt) ->
(summary, healthy)``.  The ``"selftest"`` kind exists purely so the
runner's own failure handling (retry, worker death, timeouts) can be
exercised deterministically from tests.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.experiments import run_three_phase, run_trace_analysis
from repro.faults import FaultPlan, run_chaos
from repro.obs import JSONLSink, OBS
from repro.obs.analytics import analytics_from_trace, dump_analytics
from repro.obs.invariants import CheckerSink
from repro.obs.profile import profiling
from repro.obs.report import EmptyTraceError
from repro.runner.spec import TaskSpec

__all__ = [
    "EXPERIMENTS",
    "run_task",
    "TRACE_FILENAME",
    "METRICS_FILENAME",
    "OUTCOME_FILENAME",
    "PROFILE_FILENAME",
    "ANALYTICS_FILENAME",
    "ANALYTICS_BIN_SECONDS",
]

TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.json"
OUTCOME_FILENAME = "outcome.json"
PROFILE_FILENAME = "profile.json"
ANALYTICS_FILENAME = "analytics.json"

#: Bin width of the per-task analytics series.  A constant (not a
#: knob) on purpose: the sweep rollup refuses to merge documents with
#: differing windows, so every worker must agree.
ANALYTICS_BIN_SECONDS = 10.0

#: Violations listed per task in the aggregate (the count stays exact).
MAX_LISTED_VIOLATIONS = 50


def _jsonify(value):
    """Recursively coerce numpy scalars / tuples into plain JSON types
    so the aggregate is loadable (and byte-stable) everywhere."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    # numpy scalars expose item(); anything else falls back to repr.
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonify(item())
    return repr(value)


# ----------------------------------------------------------------------
# experiment kinds
# ----------------------------------------------------------------------
def _run_chaos_task(spec: TaskSpec, attempt: int) -> Tuple[Dict, bool]:
    plan = FaultPlan.from_json(spec.plan) if spec.plan else None
    seed = spec.seed if spec.seed is not None else 7
    # The harness adopts the worker's CheckerSink as its suite.
    result = run_chaos(seed=seed, plan=plan, **dict(spec.config))
    summary = {
        "duration": result.duration,
        "phase_ends": result.phase_ends,
        "faults": len(result.faults),
        "transfers": result.transfers,
        "wasted_bytes": result.wasted_bytes,
        "lost_objects": len(result.lost_objects),
        "degraded_objects": len(result.degraded_objects),
        "degraded_reads": result.degraded_reads,
        "unavailable_reads": result.unavailable_reads,
        "dirty_backlog": result.dirty_backlog,
        "final_audit": {
            "lost": int(result.final_audit.get("lost", 0)),
            "under_replicated":
                int(result.final_audit.get("under_replicated", 0)),
        },
        "peak_throughput": result.peak_throughput,
        "mean_throughput": result.mean_throughput,
    }
    return summary, result.ok


def _run_trace_task(spec: TaskSpec, attempt: int) -> Tuple[Dict, bool]:
    config = dict(spec.config)
    which = config.pop("which", "CC-a")
    exp = run_trace_analysis(which, seed=spec.seed, **config)
    rel = exp.table2_row()
    summary = {
        "which": which,
        "ideal_machine_hours": exp.analysis.ideal_machine_hours,
        "machine_hours": {name: res.machine_hours
                          for name, res in exp.analysis.results.items()},
        "relative_machine_hours": rel,
    }
    # A policy beating the clairvoyant ideal (or a non-finite ratio)
    # means the analysis itself is broken.
    healthy = all(v == v and v >= 1.0 for v in rel.values())
    return summary, healthy


def _run_three_phase_task(spec: TaskSpec, attempt: int) -> Tuple[Dict, bool]:
    config = dict(spec.config)
    mode = config.pop("mode", "selective")
    result = run_three_phase(mode, **config)
    if not result.finished:
        # A legitimate outcome (the workload outlasts max_duration),
        # not a crash: unhealthy once, never retried.
        return {"mode": mode, "phase_ends": result.phase_ends,
                "unfinished": list(result.unfinished),
                "duration": result.duration}, False
    p2 = result.phase_ends["phase2"]
    summary = {
        "mode": mode,
        "phase_ends": result.phase_ends,
        "peak_throughput": max(result.throughput),
        "mean_phase3_throughput":
            result.mean_throughput(p2, result.phase_ends["phase3"]),
        "recovery_time_after_p2": result.recovery_time_after(p2),
        "migrated_bytes": result.migrated_bytes,
        "rereplicated_bytes": result.rereplicated_bytes,
    }
    return summary, True


def _run_selftest_task(spec: TaskSpec, attempt: int) -> Tuple[Dict, bool]:
    """Deterministic failure modes for the runner's own tests.

    Config keys: ``fail_attempts`` (attempts 1..k misbehave),
    ``mode`` (``"raise"`` | ``"exit"`` — die without cleanup, the
    worker-crash case | ``"hang"`` — sleep past any timeout),
    ``delay`` (sleep this long before acting, to sequence failures
    against sibling tasks), ``unhealthy`` (finish but report
    unhealthy), ``echo`` (round-trip payload).
    """
    config = spec.config
    delay = float(config.get("delay", 0.0))
    if delay:
        time.sleep(delay)
    if attempt <= int(config.get("fail_attempts", 0)):
        mode = config.get("mode", "raise")
        if mode == "exit":
            os._exit(17)
        if mode == "hang":
            time.sleep(float(config.get("hang_seconds", 3600.0)))
        raise RuntimeError(
            f"selftest: planned failure on attempt {attempt}")
    OBS.bus.emit("selftest.run", t=0.0, task=spec.task_id)
    summary = {"echo": config.get("echo")}
    return summary, not bool(config.get("unhealthy", False))


EXPERIMENTS: Dict[str, Callable[[TaskSpec, int], Tuple[Dict, bool]]] = {
    "chaos": _run_chaos_task,
    "trace": _run_trace_task,
    "three-phase": _run_three_phase_task,
    "selftest": _run_selftest_task,
}


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def run_task(spec_dict: Dict[str, object], out_dir: str,
             attempt: int = 1, profile: bool = False) -> Dict[str, object]:
    """Execute one task in the current process and return its outcome.

    Takes the spec as a plain dict (cheapest thing to pickle across
    the process boundary); *attempt* is the 1-based launch ordinal so
    retried tasks can be distinguished — and so the test-only selftest
    kind can fail deterministically on early attempts.  With *profile*
    a per-task ``profile.json`` lands next to the trace; like
    ``run_info.json`` it holds wall-clock data and is **not** part of
    the deterministic surface (the trace and outcome are byte-identical
    either way).
    """
    spec = TaskSpec.from_dict(spec_dict)
    fn = EXPERIMENTS.get(spec.kind)
    if fn is None:
        raise ValueError(
            f"unknown experiment kind {spec.kind!r} "
            f"(known: {', '.join(sorted(EXPERIMENTS))})")
    task_dir = Path(out_dir) / spec.task_id
    task_dir.mkdir(parents=True, exist_ok=True)

    # Fresh observability world per task: whatever the process brought
    # with it (a forked child inherits the parent's) must not leak into
    # this run's trace or metrics.
    OBS.reset()
    sink = JSONLSink(str(task_dir / TRACE_FILENAME))
    checker = CheckerSink()
    OBS.bus.attach(sink)
    OBS.bus.attach(checker)
    try:
        with profiling(str(task_dir / PROFILE_FILENAME) if profile else None,
                       f"task:{spec.kind}", f"sweep:{spec.kind}",
                       meta={"task": spec.task_id, "attempt": attempt}):
            summary, healthy = fn(spec, attempt)
    finally:
        OBS.bus.detach(checker)
        OBS.bus.detach(sink)
        sink.close()

    violations = [v.describe() for v in checker.finish()]
    metrics = OBS.metrics.snapshot()
    (task_dir / METRICS_FILENAME).write_text(
        json.dumps(_jsonify(metrics), indent=2, sort_keys=True) + "\n")

    # Per-task analytics: built from the task's own finished trace so
    # the parent can merge rollups by task id without re-reading every
    # trace.  Sim-derived only — part of the deterministic surface.
    try:
        analytics = analytics_from_trace(
            str(task_dir / TRACE_FILENAME),
            bin_seconds=ANALYTICS_BIN_SECONDS)
    except EmptyTraceError:
        pass          # a task that emitted no events has no series
    else:
        analytics["source"] = TRACE_FILENAME   # relative: dir-movable
        dump_analytics(analytics, str(task_dir / ANALYTICS_FILENAME))

    ok = healthy and not violations
    outcome: Dict[str, object] = _jsonify({
        "task": spec.task_id,
        "kind": spec.kind,
        "seed": spec.seed,
        "status": "ok" if ok else "unhealthy",
        "healthy": ok,
        "attempts": attempt,
        "events": sink.events_written,
        "violations": violations[:MAX_LISTED_VIOLATIONS],
        "violation_count": len(violations),
        "summary": summary,
    })
    (task_dir / OUTCOME_FILENAME).write_text(
        json.dumps(outcome, indent=2, sort_keys=True) + "\n")
    return outcome
