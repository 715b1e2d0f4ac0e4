"""Declarative fault plans: *what* goes wrong, and *when*.

A :class:`FaultPlan` is data, not behaviour — a list of
:class:`FaultEvent` records that can be generated from a seed,
round-tripped through JSON (so a failing chaos run's plan can be
attached to a bug report and replayed exactly), and validated against
a cluster size before anything is armed.  The
:class:`~repro.faults.injector.FaultInjector` turns a plan into
scheduled simulator actions.

Three fault kinds model the paper's operational environment:

``crash``
    A server dies losing its replicas (§II-C's failure case, as
    opposed to a planned power-down which keeps data on disk).  Every
    crash carries a ``repair_after`` window — the delayed-repair
    period during which the cluster runs under-replicated and
    recovery traffic competes with the foreground workload.
``slow_disk``
    A transient disk-bandwidth degradation: for ``duration`` seconds
    the rank's capacity is multiplied by ``factor`` (< 1).
``link_loss``
    The link between two ranks drops for ``duration`` seconds; any
    bulk transfer depending on both endpoints is preempted and
    retried under backoff.

An event fires either at an absolute simulation ``time`` or at
``time`` seconds after a named *trigger* observed by the harness
(``phase2`` / ``phase3`` start, first ``recovery`` or
``reintegration`` transfer start) — triggers are what make "crash
mid-re-integration" a deterministic scenario at any workload scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["FaultEvent", "FaultPlan", "KINDS", "TRIGGERS",
           "require_periods"]

#: Recognised fault kinds.
KINDS = ("crash", "slow_disk", "link_loss")

#: Recognised trigger names (see module docstring).
TRIGGERS = ("phase2", "phase3", "recovery", "reintegration")


def require_periods(**periods: float) -> None:
    """Reject a harness period or rate (simulated seconds or 1/s, by
    keyword) that is not finite and ``> 0``."""
    for name, period in periods.items():
        if not (math.isfinite(period) and period > 0):
            raise ValueError(f"{name} must be > 0 and finite "
                             f"(got {period})")


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault (see module docstring for the kinds).

    ``time`` is absolute simulation seconds, or — when ``trigger`` is
    set — the offset after the trigger fires.
    """

    kind: str
    time: float
    rank: Optional[int] = None
    peer: Optional[int] = None
    duration: Optional[float] = None
    factor: Optional[float] = None
    repair_after: Optional[float] = None
    trigger: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r} "
                             f"(expected one of {KINDS})")
        if not (isinstance(self.time, (int, float))
                and math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"time must be a finite number >= 0, "
                             f"got {self.time!r}")
        if self.trigger is not None and self.trigger not in TRIGGERS:
            raise ValueError(f"unknown trigger: {self.trigger!r} "
                             f"(expected one of {TRIGGERS})")
        if self.kind == "crash":
            if self.rank is None:
                raise ValueError("crash needs a rank")
            if not (isinstance(self.repair_after, (int, float))
                    and math.isfinite(self.repair_after)
                    and self.repair_after > 0):
                raise ValueError(
                    "crash needs repair_after > 0: an unbounded outage "
                    "leaves the cluster under-replicated forever and no "
                    "invariant could ever settle")
        elif self.kind == "slow_disk":
            if self.rank is None:
                raise ValueError("slow_disk needs a rank")
            if not (self.duration and self.duration > 0):
                raise ValueError("slow_disk needs duration > 0")
            if (self.factor is None or not 0.0 <= self.factor < 1.0):
                raise ValueError("slow_disk needs factor in [0, 1)")
        else:  # link_loss
            if self.rank is None or self.peer is None:
                raise ValueError("link_loss needs rank and peer")
            if self.rank == self.peer:
                raise ValueError("link_loss endpoints must differ")
            if not (self.duration and self.duration > 0):
                raise ValueError("link_loss needs duration > 0")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "time": self.time}
        for name in ("rank", "peer", "duration", "factor",
                     "repair_after", "trigger"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        known = {"kind", "time", "rank", "peer", "duration", "factor",
                 "repair_after", "trigger"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown fault-event fields: {sorted(extra)}")
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class FaultPlan:
    """An ordered list of fault events plus the seed that produced it
    (``None`` for hand-written plans)."""

    events: List[FaultEvent] = field(default_factory=list)
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    def timed(self) -> List[FaultEvent]:
        """Events firing at absolute times (no trigger)."""
        return [e for e in self.events if e.trigger is None]

    def triggered(self, name: str) -> List[FaultEvent]:
        """Events waiting on trigger *name*."""
        return [e for e in self.events if e.trigger == name]

    def check_ranks(self, n: int) -> None:
        """Reject a plan that names ranks outside ``1..n``."""
        for e in self.events:
            for rank in (e.rank, e.peer):
                if rank is not None and not 1 <= rank <= n:
                    raise ValueError(
                        f"fault plan names rank {rank} but the cluster "
                        f"has ranks 1..{n}")

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed,
             "events": [e.to_dict() for e in self.events]},
            indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict) or "events" not in data:
            raise ValueError("fault plan JSON must be an object with "
                             "an 'events' list")
        events = [FaultEvent.from_dict(d) for d in data["events"]]
        return cls(events=events, seed=data.get("seed"))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------
    # generators
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        n: int,
        duration: float,
        crashes: int = 1,
        slow_disks: int = 1,
        link_losses: int = 1,
        crashable: Optional[Sequence[int]] = None,
    ) -> "FaultPlan":
        """A random-but-reproducible plan of absolute-time faults.

        Crash scheduling keeps the plan *survivable* with r >= 2: the
        run's duration is split into one window per crash, each crash
        lands early in its window and its repair completes inside it,
        so at most one rank is ever down at a time and no two
        overlapping crashes can eat both replicas of an object.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if crashable is None:
            crashable = list(range(2, n + 1)) or [1]
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        if crashes:
            span = duration / crashes
            for i in range(crashes):
                t = (i + float(rng.uniform(0.10, 0.35))) * span
                repair_after = float(rng.uniform(0.25, 0.45)) * span
                rank = int(rng.choice(np.asarray(crashable)))
                events.append(FaultEvent(
                    kind="crash", time=round(t, 3), rank=rank,
                    repair_after=round(repair_after, 3)))
        for _ in range(slow_disks):
            t = float(rng.uniform(0.05, 0.70)) * duration
            length = float(rng.uniform(0.10, 0.25)) * duration
            rank = int(rng.integers(1, n + 1))
            factor = float(rng.uniform(0.2, 0.6))
            events.append(FaultEvent(
                kind="slow_disk", time=round(t, 3), rank=rank,
                duration=round(length, 3), factor=round(factor, 3)))
        for _ in range(link_losses):
            t = float(rng.uniform(0.05, 0.80)) * duration
            length = float(rng.uniform(0.05, 0.15)) * duration
            a, b = (int(x) for x in rng.choice(
                np.arange(1, n + 1), size=2, replace=False))
            events.append(FaultEvent(
                kind="link_loss", time=round(t, 3), rank=min(a, b),
                peer=max(a, b), duration=round(length, 3)))
        events.sort(key=lambda e: (e.time, e.kind, e.rank or 0))
        return cls(events=events, seed=seed)

    @classmethod
    def three_phase_default(cls, seed: int, n: int = 10,
                            off_count: int = 4) -> "FaultPlan":
        """The curated chaos scenario for the §V-A workload, scale-free
        thanks to triggers:

        * a disk slow-down on a phase-2 survivor shortly into phase 2;
        * a crash of a just-re-powered secondary two seconds into the
          selective re-integration transfer — the acceptance scenario:
          the preempted transfer must re-enqueue, not drop, its dirty
          entries — with a delayed repair;
        * a link loss shortly after the crash-recovery transfer
          starts, forcing one retry/backoff round.
        """
        rng = np.random.default_rng(seed)
        repowered = (list(range(n - off_count + 1, n + 1))
                     if off_count else [n])
        survivors = list(range(2, max(n - off_count + 1, 3))) or [1]
        crash_rank = int(rng.choice(np.asarray(repowered)))
        slow_rank = int(rng.choice(np.asarray(survivors)))
        a, b = (int(x) for x in rng.choice(
            np.arange(1, n + 1), size=2, replace=False))
        events = [
            FaultEvent(kind="slow_disk", trigger="phase2", time=4.0,
                       rank=slow_rank, duration=25.0, factor=0.4),
            FaultEvent(kind="crash", trigger="reintegration", time=2.0,
                       rank=crash_rank,
                       repair_after=float(round(rng.uniform(18.0, 30.0),
                                                3))),
            FaultEvent(kind="link_loss", trigger="recovery", time=1.0,
                       rank=min(a, b), peer=max(a, b), duration=6.0),
        ]
        return cls(events=events, seed=seed)
