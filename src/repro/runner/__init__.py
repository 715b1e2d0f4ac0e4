"""Parallel sweep orchestration: independent seeded runs, one process
per task attempt, merged into a deterministic aggregate.

The repo's multi-seed experiments — robustness checks, chaos property
matrices, trace-policy grids — are embarrassingly parallel.  This
package supplies the fan-out:

* :class:`TaskSpec` — the picklable unit of work (experiment kind +
  seed + config + optional fault plan);
* :func:`repro.runner.worker.run_task` — worker-side execution with
  per-task trace routing, live invariant checking and a structured
  outcome;
* :class:`SweepRunner` — starts each task attempt in a process of its
  own, at most ``workers`` at once; the aggregate report is
  byte-identical for ``workers=1`` and ``workers=N`` (results merge
  by task id, never by completion order), and an attempt that raises,
  dies or times out is charged to its own task alone.

``python -m repro sweep`` is the CLI surface.
"""

from repro.runner.spec import TaskSpec
from repro.runner.sweep import (
    SweepResult,
    SweepRunner,
    TaskResult,
    render_sweep_report,
)
from repro.runner.worker import run_task

__all__ = [
    "TaskSpec",
    "TaskResult",
    "SweepRunner",
    "SweepResult",
    "render_sweep_report",
    "run_task",
]
