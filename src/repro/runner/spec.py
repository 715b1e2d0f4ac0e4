"""Sweep task specifications: the picklable unit of work.

A :class:`TaskSpec` names one independent seeded run — an experiment
kind, a seed, a config dict, and (for chaos tasks) an optional fault
plan serialised as JSON.  Specs cross the process boundary by pickle
(process launch) and by JSON (the aggregate report), so every
field is restricted to plain JSON-representable values.

The ``task_id`` doubles as the per-run directory name and as the merge
key: the sweep runner aggregates results **by task id, never by
completion order**, which is what makes the aggregate report
byte-identical regardless of worker count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["TaskSpec"]

#: Task ids become directory names and sort keys — keep them to a
#: filesystem- and shell-safe alphabet.
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class TaskSpec:
    """One independent run of a sweep.

    Attributes
    ----------
    task_id:
        Unique, stable identifier.  Used as the per-run directory name
        under the sweep's output directory and as the deterministic
        merge/sort key of the aggregate report.
    kind:
        Experiment kind — a key of
        :data:`repro.runner.worker.EXPERIMENTS` (``"chaos"``,
        ``"trace"``, ``"three-phase"``, and the test-only
        ``"selftest"``).
    seed:
        The run's seed (semantics are per kind: fault-plan seed for
        chaos, trace-generator seed for trace runs).
    config:
        Kind-specific keyword arguments, JSON-representable.
    plan:
        Optional :meth:`repro.faults.FaultPlan.to_json` string applied
        to chaos tasks instead of generating a plan from the seed.
    """

    task_id: str
    kind: str
    seed: Optional[int] = None
    config: Dict[str, object] = field(default_factory=dict)
    plan: Optional[str] = None

    def __post_init__(self) -> None:
        if not _ID_RE.match(self.task_id):
            raise ValueError(
                f"invalid task_id {self.task_id!r}: must match "
                f"{_ID_RE.pattern} (it names a directory)")
        if len(self.task_id) > 128:
            raise ValueError("task_id too long (max 128 characters)")
        if not self.kind or not isinstance(self.kind, str):
            raise ValueError("kind must be a non-empty string")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError("seed must be an int or None")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON/pickle-friendly form (what a task process is launched with)."""
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "seed": self.seed,
            "config": dict(self.config),
            "plan": self.plan,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TaskSpec":
        return cls(
            task_id=str(data["task_id"]),
            kind=str(data["kind"]),
            seed=data.get("seed"),            # type: ignore[arg-type]
            config=dict(data.get("config") or {}),
            plan=data.get("plan"),            # type: ignore[arg-type]
        )
