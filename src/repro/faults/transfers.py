"""Interruptible bulk transfers: recovery and re-integration as
preemptible fluid flows with retry/backoff and quarantine.

The crash-consistency discipline (see ``docs/ROBUSTNESS.md``):

* **Plan**: each launch calls the job's ``plan_fn`` fresh — the work
  is re-planned against the membership current *now*, because a crash
  or resize may have moved the targets since the job was enqueued.
* **Move**: the planned bytes ride a
  :class:`~repro.simulation.flows.FluidFlow` tagged with the ranks it
  depends on; the endpoints are pinned via
  ``ElasticCluster.acquire_ranks`` so a repair cannot race an
  in-flight transfer.
* **Commit on ack only**: cluster state (replica maps, location
  versions, dirty entries) mutates exclusively in the plan's
  ``commit`` callback, which runs after the flow drains and the
  ``transfer.ack`` event is emitted.  An interrupted flow therefore
  needs no rollback: its partial bytes are recorded as wasted work,
  the dirty entries it would have cleared are still in the table, and
  the job re-enqueues under the :class:`~repro.faults.retry.RetryPolicy`.
* **Quarantine**: a job preempted past ``max_attempts`` stops
  retrying; its objects are surfaced as *degraded* in the chaos
  report instead of silently spinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.obs.runtime import OBS
from repro.simulation.flows import FluidFlow, FlowSet

__all__ = ["PlannedTransfer", "TransferJob", "TransferManager"]


@dataclass
class PlannedTransfer:
    """One launch-time snapshot of a transfer: the bytes to move, the
    ranks it depends on, the objects it will settle, and the commit
    that lands the state change once the bytes are acknowledged."""

    nbytes: float
    ranks: FrozenSet[int]
    oids: Tuple[int, ...]
    commit: Callable[[], None]
    #: Optional explicit per-rank load routing; the manager's
    #: ``coefficients_for`` hook (or an even spread) applies when None.
    coefficients: Optional[Mapping[int, float]] = None

    @classmethod
    def of(cls, plan, commit: Callable[[], None]) -> "PlannedTransfer":
        """The transfer that carries a movement *plan*
        (:class:`~repro.core.reintegration.MigrationPlan`): its bytes,
        the ranks its copies touch, the objects *commit* settles."""
        return cls(nbytes=float(plan.total_bytes),
                   ranks=frozenset(plan.involved_ranks()),
                   oids=plan.oids, commit=commit)


@dataclass
class TransferJob:
    """A unit of re-enqueueable transfer work.

    ``plan_fn`` returns the :class:`PlannedTransfer` for *this* launch
    (or ``None`` when the work has evaporated — e.g. the dirty entries
    were settled by a later pass); it is called once per attempt.
    """

    key: str
    kind: str  # flow name: "recovery" | "reintegration" | ...
    plan_fn: Callable[[], Optional[PlannedTransfer]]
    rate_cap: float = math.inf

    attempts: int = 0
    status: str = "pending"  # pending | active | done | quarantined
    ready_at: float = 0.0
    wasted_bytes: float = 0.0
    flow: Optional[FluidFlow] = None
    planned: Optional[PlannedTransfer] = None
    #: Objects named by the most recent plan — what a quarantine
    #: surfaces as degraded.
    last_oids: Tuple[int, ...] = field(default_factory=tuple)


class TransferManager:
    """Launches, preempts, retries and quarantines transfer jobs.

    Parameters
    ----------
    cluster:
        Supplies ``acquire_ranks`` / ``release_ranks`` /
        ``record_wasted_bytes`` (an :class:`ElasticCluster`).
    flows:
        The live :class:`~repro.simulation.flows.FlowSet` the
        transfers' fluid flows join.
    policy:
        The :class:`~repro.faults.retry.RetryPolicy` governing
        re-enqueues.
    coefficients_for:
        ``(planned, job) -> {rank: load}`` routing hook; default
        spreads the load evenly over the planned ranks.
    link_blocked:
        ``(ranks) -> bool`` — consulted at launch so a transfer never
        starts across a known-dead link (it backs off instead).
    """

    def __init__(
        self,
        cluster,
        flows: FlowSet,
        policy,
        coefficients_for: Optional[
            Callable[[PlannedTransfer, TransferJob],
                     Mapping[int, float]]] = None,
        link_blocked: Optional[Callable[[Iterable[int]], bool]] = None,
        parent_span=None,
    ) -> None:
        self.cluster = cluster
        self.flows = flows
        self.policy = policy
        self._coefficients_for = coefficients_for
        self._link_blocked = link_blocked
        self._parent_span = parent_span
        #: Fired after a launch's ``transfer.start`` — the chaos
        #: harness hangs fault triggers here: ``hook(job, now)``.
        self.on_start: Optional[Callable[[TransferJob, float], None]] = None

        self.jobs: List[TransferJob] = []
        self.pending: List[TransferJob] = []
        self.active: List[TransferJob] = []
        self.quarantined: List[TransferJob] = []
        self.completed = 0
        self.retries = 0
        self.interrupts = 0

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """No work in flight and none waiting (quarantined jobs are
        abandoned, not waiting)."""
        return not self.active and not self.pending

    def stats(self) -> Dict[str, int]:
        return {
            "submitted": len(self.jobs),
            "completed": self.completed,
            "active": len(self.active),
            "pending": len(self.pending),
            "retries": self.retries,
            "interrupted": self.interrupts,
            "quarantined": len(self.quarantined),
        }

    def degraded_objects(self) -> Tuple[int, ...]:
        """Objects stranded by quarantined transfers, sorted."""
        oids: set = set()
        for job in self.quarantined:
            oids.update(job.last_oids)
        return tuple(sorted(oids))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def submit(self, job: TransferJob, now: float = 0.0) -> TransferJob:
        job.ready_at = now
        self.jobs.append(job)
        self.pending.append(job)
        OBS.metrics.inc("transfers.submitted")
        return job

    def poll(self, now: float) -> int:
        """Launch every pending job whose backoff has expired; returns
        how many went live.  A launch that backs off again (dead link)
        re-enters the queue with ``ready_at`` in the future, so the
        loop cannot spin."""
        launched = 0
        for job in list(self.pending):
            if job.status != "pending" or job.ready_at > now:
                continue
            self.pending.remove(job)
            launched += self._launch(job, now)
        return launched

    def _launch(self, job: TransferJob, now: float) -> int:
        planned = job.plan_fn()
        if planned is None:
            # The work evaporated (e.g. a later pass settled the
            # entries): done without a transfer.
            job.status = "done"
            self.completed += 1
            return 0
        job.planned = planned
        job.last_oids = tuple(planned.oids)
        job.attempts += 1
        if (planned.ranks and self._link_blocked is not None
                and self._link_blocked(planned.ranks)):
            self._setback(job, now, "link-blocked")
            return 0
        if OBS.bus.active:
            OBS.bus.emit("transfer.start", key=job.key, transfer=job.kind,
                         attempt=job.attempts,
                         nbytes=float(planned.nbytes),
                         objects=len(planned.oids),
                         ranks=sorted(planned.ranks))
        OBS.metrics.inc("transfers.started")
        if planned.nbytes <= 0:
            # Nothing to move (stale-entry cleanup): ack and commit
            # immediately — the ack still precedes the dirty removals.
            job.status = "active"
            self.active.append(job)
            if self.on_start is not None:
                self.on_start(job, now)
            self.active.remove(job)
            self._ack(job, planned)
            return 1
        coefficients = planned.coefficients
        if coefficients is None:
            if self._coefficients_for is not None:
                coefficients = self._coefficients_for(planned, job)
            else:
                ranks = sorted(planned.ranks)
                coefficients = {r: 1.0 / len(ranks) for r in ranks}
        flow = FluidFlow(
            name=job.kind,
            coefficients=coefficients,
            total_bytes=float(planned.nbytes),
            rate_cap=job.rate_cap,
            ranks=frozenset(planned.ranks),
            on_complete=lambda _flow, j=job: self._on_complete(j),
            on_interrupt=lambda _flow, j=job: self._on_interrupt(j, _flow),
        )
        self.cluster.acquire_ranks(planned.ranks)
        job.status = "active"
        job.flow = flow
        self.active.append(job)
        self.flows.add(flow, parent=self._parent_span)
        if self.on_start is not None:
            self.on_start(job, now)
        return 1

    # ------------------------------------------------------------------
    def _ack(self, job: TransferJob, planned: PlannedTransfer) -> None:
        """The bytes landed: acknowledge, then commit.  The ack event
        precedes the commit's ``dirty.remove`` emissions — that order
        *is* the dirty-entry-cleared-only-on-ack invariant."""
        job.status = "done"
        job.flow = None
        self.completed += 1
        OBS.metrics.inc("transfers.completed")
        if OBS.bus.active:
            OBS.bus.emit("transfer.ack", key=job.key, transfer=job.kind,
                         nbytes=float(planned.nbytes),
                         oids=sorted(planned.oids))
        planned.commit()
        job.planned = None

    def _on_complete(self, job: TransferJob) -> None:
        planned = job.planned
        self.active.remove(job)
        self.cluster.release_ranks(planned.ranks)
        self._ack(job, planned)

    def _on_interrupt(self, job: TransferJob, flow: FluidFlow) -> None:
        """The flow was preempted (already removed from its set): no
        state to roll back — just account the waste and re-enqueue."""
        planned = job.planned
        self.active.remove(job)
        self.cluster.release_ranks(planned.ranks)
        self.interrupts += 1
        job.wasted_bytes += flow.progressed
        self.cluster.record_wasted_bytes(job.kind, flow.progressed)
        job.flow = None
        job.planned = None
        self._setback(job, float(OBS.bus.clock), "interrupted")

    def _setback(self, job: TransferJob, now: float, reason: str) -> None:
        if self.policy.exhausted(job.attempts):
            self._quarantine(job, reason)
            return
        delay = self.policy.delay(job.attempts, key=job.key)
        job.ready_at = now + delay
        job.status = "pending"
        self.pending.append(job)
        self.retries += 1
        OBS.metrics.inc("transfers.retried")
        if OBS.bus.active:
            OBS.bus.emit("transfer.retry", key=job.key, transfer=job.kind,
                         attempt=job.attempts, delay=delay, reason=reason)

    def _quarantine(self, job: TransferJob, reason: str) -> None:
        job.status = "quarantined"
        job.planned = None
        self.quarantined.append(job)
        OBS.metrics.inc("transfers.quarantined")
        if OBS.bus.active:
            OBS.bus.emit("transfer.quarantine", key=job.key,
                         transfer=job.kind, attempts=job.attempts,
                         reason=reason, oids=sorted(job.last_oids))

    # ------------------------------------------------------------------
    # fault entry points
    # ------------------------------------------------------------------
    def on_crash(self, rank: int, reason: str = "crash") -> int:
        """Preempt every active transfer depending on *rank*; returns
        how many were interrupted."""
        hit = 0
        for job in list(self.active):
            if (job.planned is not None and rank in job.planned.ranks
                    and job.flow is not None):
                self.flows.interrupt(job.flow, reason=reason)
                hit += 1
        return hit

    def on_link_loss(self, pair: Iterable[int]) -> int:
        """Preempt every active transfer spanning both endpoints of a
        dead link."""
        endpoints = frozenset(pair)
        hit = 0
        for job in list(self.active):
            if (job.planned is not None and job.flow is not None
                    and endpoints <= set(job.planned.ranks)):
                self.flows.interrupt(job.flow, reason="link-loss")
                hit += 1
        return hit
