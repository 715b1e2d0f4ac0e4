"""Cluster models: the elastic system and the original-CH baseline.

Both clusters record every replica in one
:class:`~repro.cluster.objects.ObjectTable`, so every migration/recovery
volume the benches report is *measured* from it, not estimated from
expectations.

:class:`ElasticCluster` composes the paper's full design —
:class:`~repro.core.elastic.ElasticConsistentHash` placement, write
offloading with dirty tracking, instant power-state resizing, and full
or selective re-integration.

:class:`OriginalCHCluster` is the §II-C baseline: uniform vnode
weights, no roles, and servers *leave the cluster* when turned down.
Removing a server therefore requires re-replicating every replica it
held before the next removal can proceed (that is Figure 2's lag), and
re-adding a server migrates everything the new layout maps onto it
(that is Figure 3's throughput dip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Container, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.core.elastic import ElasticConsistentHash
from repro.core.kernel import (BulkPlacement, PlacementKernel,
                               SlotPlacementTable)
from repro.core.placement import PlacementResult
from repro.hashring.hashing import bulk_hash
from repro.core.reintegration import (
    MigrationPlan,
    MigrationTask,
    ReintegrationEngine,
    ReintegrationPlan,
    ReintegrationReport,
)
from repro.cluster.objects import DEFAULT_OBJECT_SIZE, ObjectTable
from repro.cluster.server import StorageServer
from repro.hashring.ring import HashRing
from repro.obs.runtime import OBS

__all__ = ["ElasticCluster", "OriginalCHCluster", "CrashRecoveryWork"]


@dataclass
class CrashRecoveryWork:
    """The re-replication debt a crash leaves behind.

    :meth:`ElasticCluster.crash_server` returns one of these instead
    of repairing in place: the crash's *observable* effects (version
    advance, dirty tracking, lost replicas) are immediate, but the
    re-replication bytes only land when
    :meth:`ElasticCluster.commit_crash_recovery` runs — after a
    transfer layer has actually moved them, or immediately for the
    classic instantaneous :meth:`ElasticCluster.fail_server` path.
    """

    rank: int
    #: Crash-time membership version (the epoch the dirty entries
    #: carry).
    version: int
    #: ``oid -> size`` of every replica lost with the server, in the
    #: rank's landing order (deterministic).
    lost: Dict[int, int] = field(default_factory=dict)
    #: The open ``recovery.fail`` span; closed by the commit.
    span: Optional[object] = None


def _rows(bulk: BulkPlacement, oids: Sequence[int]
          ) -> List[Tuple[int, ...]]:
    """*bulk*, the placement of *oids*, as server tuples.  An
    unplaceable object raises the scalar path's ``LookupError``, naming
    the oid."""
    if not bulk.all_ok:
        bad = int(np.flatnonzero(~bulk.ok)[0])
        raise LookupError(f"{bulk.reasons[bad]} (oid {oids[bad]!r})")
    return [tuple(row) for row in bulk.rows()]


def _check_size(size: int) -> None:
    """A write's size is a byte count: finite and not negative."""
    if not 0 <= size < math.inf:
        raise ValueError(f"size must be non-negative and finite "
                         f"(got {size})")


class _ClusterBase:
    """Shared plumbing: server map, object table, distribution
    accounting."""

    def __init__(self, n: int, replicas: int,
                 capacities: Optional[Sequence[Optional[int]]] = None,
                 disk_bandwidth: float = 100e6) -> None:
        if n < replicas:
            raise ValueError("cluster smaller than replication factor")
        self.replicas = replicas
        self.servers: Dict[int, StorageServer] = {
            rank: StorageServer(
                rank,
                capacity_bytes=(capacities[rank - 1]
                                if capacities is not None else None),
                disk_bandwidth=disk_bandwidth,
            )
            for rank in range(1, n + 1)
        }
        #: Every object and where its replicas live, stored once.
        self.objects = ObjectTable(self.servers)

    @property
    def n(self) -> int:
        return len(self.servers)

    def stored_locations(self, oid: int) -> Tuple[int, ...]:
        """Ranks physically holding a replica of *oid* (any power
        state), ascending."""
        return self.objects.holders(oid)

    def bytes_per_rank(self) -> Dict[int, int]:
        """Physical bytes per rank — Figure 5's y-axis."""
        return self.objects.bytes_per_rank()

    def replicas_per_rank(self) -> Dict[int, int]:
        return self.objects.replicas_per_rank()

    def total_stored_bytes(self) -> int:
        return sum(self.objects.bytes_per_rank().values())

    # ------------------------------------------------------------------
    # data movement: plan, then apply (DESIGN.md)
    # ------------------------------------------------------------------
    def _placement_rows(self, oids: Sequence[int]) -> List[Tuple[int, ...]]:
        """Current placement of *oids*, in bulk, as server tuples."""
        return _rows(self.placement_bulk(oids), oids) if oids else []

    def object_placements(self) -> Tuple[List[Tuple[int, int]],
                                         List[Tuple[int, ...]]]:
        """Every object's current placement: ``((oid, header size)
        pairs, target-server rows)`` aligned by index — what the
        whole-table rules run on instead of a scalar lookup per
        object."""
        objs = list(self.objects.items())
        return objs, self._placement_rows([oid for oid, _ in objs])

    def _task(self, oid: int, size: int, target: Sequence[int],
              recopy: Container[int] = ()) -> MigrationTask:
        """The comparison every rule shares: stored holders against the
        *target* placement.  Copies go to targets that hold nothing
        (or sit in *recopy*: held, but not trusted); holders outside
        the target are surplus."""
        stored = self.objects.holders(oid)
        return MigrationTask(
            oid, size, from_servers=stored, to_servers=tuple(target),
            moved_to=tuple(r for r in target
                           if r not in stored or r in recopy),
            dropped_from=tuple(r for r in stored if r not in target))

    def _apply(self, task: MigrationTask) -> int:
        """The one applier: land *task*'s copies, then drop its surplus
        (receives first — never dips below r).  Returns the bytes
        copied."""
        self.objects.store(task.oid, task.size, task.moved_to)
        for rank in task.dropped_from:
            self.objects.drop(task.oid, rank)
        return task.nbytes

    def verify_replication(self, require_active: bool = False) -> List[int]:
        """OIDs stored on fewer than r servers (optionally counting
        only powered-on holders) — the availability check behind the
        §II-C argument.  Empty list == healthy."""
        bad: List[int] = []
        for oid in self.objects:
            holders = [rank for rank in self.objects.holders(oid)
                       if not require_active or self.servers[rank].is_on]
            if len(holders) < self.replicas:
                bad.append(oid)
        return bad


class ElasticCluster(_ClusterBase):
    """The paper's elastic consistent-hashing storage cluster.

    Parameters
    ----------
    n, replicas, B, p, layout_mode, placement_mode, dirty_table:
        Forwarded to :class:`~repro.core.elastic.ElasticConsistentHash`.
    capacities:
        Optional per-rank capacity bytes (index 0 -> rank 1), e.g. from
        :class:`~repro.core.layout.CapacityPlan`.
    disk_bandwidth:
        Per-server disk throughput for the simulator's IO model.

    Examples
    --------
    >>> cl = ElasticCluster(n=10, replicas=2)
    >>> cl.write(42)                        # doctest: +ELLIPSIS
    PlacementResult(...)
    >>> cl.resize(6)                        # instant: no clean-up work
    >>> cl.write(43)                        # offloaded + dirty-tracked
    PlacementResult(...)
    >>> cl.resize(10)
    >>> report = cl.run_selective_reintegration()
    >>> cl.ech.dirty.is_empty()
    True
    """

    def __init__(
        self,
        n: int,
        replicas: int = 2,
        B: int = 10_000,
        p: Optional[int] = None,
        layout_mode: str = "equal-work",
        placement_mode: str = "primary",
        capacities: Optional[Sequence[Optional[int]]] = None,
        disk_bandwidth: float = 100e6,
        dirty_table=None,
    ) -> None:
        super().__init__(n, replicas, capacities, disk_bandwidth)
        self.ech = ElasticConsistentHash(n=n, replicas=replicas, B=B, p=p,
                                         layout_mode=layout_mode,
                                         placement_mode=placement_mode,
                                         dirty_table=dirty_table)
        self._engine = ReintegrationEngine(
            self.ech,
            object_size=self._object_size,
            on_migrate=self.apply_migration,
        )
        #: Cumulative migration traffic in bytes, by kind.
        self.migrated_bytes = {"selective": 0, "full": 0}
        #: Ranks powered on since the last re-integration pass.  The
        #: "full" path cannot tell which of their contents are stale —
        #: it does not consult the dirty table — so it re-copies
        #: everything mapping onto them (§II-C's over-migration).  The
        #: selective path verifies via the dirty table instead and
        #: clears this set for free.
        self.unverified_ranks: set = set()
        #: Open ``resize.cycle`` span: covers a size-up version advance
        #: until the re-integration debt it exposed is fully drained.
        #: None while no cycle is in flight.
        self.reintegration_cycle = None
        #: ``rank -> reference count`` of in-flight transfers (managed
        #: by :meth:`acquire_ranks`/:meth:`release_ranks`): membership
        #: repairs must not race a transfer that still reads from or
        #: writes to the rank.
        self.inflight_ranks: Dict[int, int] = {}
        #: OIDs that lost every replica under a non-strict crash
        #: recovery (overlapping failures faster than repair) — the
        #: chaos harness's "data actually gone" ledger.
        self.lost_objects: List[int] = []
        #: Partial-transfer bytes discarded by fault preemptions,
        #: recorded by the transfer layer via
        #: :meth:`record_wasted_bytes`.
        self.wasted_bytes: Dict[str, float] = {}

    def _object_size(self, oid: int) -> int:
        return (self.objects.size(oid) if oid in self.objects
                else DEFAULT_OBJECT_SIZE)

    # ------------------------------------------------------------------
    # power / membership
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        return self.ech.num_active

    @property
    def min_active(self) -> int:
        return self.ech.min_active

    @property
    def current_version(self) -> int:
        return self.ech.current_version

    @property
    def membership_token(self) -> int:
        """Moves whenever the active set does: the placement version
        (every membership transition creates one)."""
        return self.ech.current_version

    def active_ranks(self) -> List[int]:
        """Powered-on ranks of the current version, ascending."""
        return self.ech.membership.active_ranks()

    def placement_bulk(self, oids: Iterable[int]) -> BulkPlacement:
        """Current-version placement of a key collection, in bulk."""
        return self.ech.locate_bulk(oids)

    def prehash(self, oids: Union[range, np.ndarray]) -> None:
        """See :meth:`~repro.core.elastic.ElasticConsistentHash.prehash`."""
        self.ech.prehash(oids)

    def resize(self, k: int) -> None:
        """Resize to *k* active servers along the expansion chain —
        **instant**, the point of the primary-server design: shrinking
        needs no clean-up work because the primaries always hold a full
        copy, and growing needs no migration before serving."""
        table = self.ech.set_active(k)
        bus = OBS.bus
        powered_on: List[int] = []
        powered_off: List[int] = []
        for rank, srv in self.servers.items():
            if table.is_active(rank):
                if not srv.is_on:
                    self.unverified_ranks.add(rank)
                    powered_on.append(rank)
                srv.power_on()
            else:
                if srv.is_on:
                    powered_off.append(rank)
                srv.power_off()
                self.unverified_ranks.discard(rank)
        OBS.metrics.inc("cluster.resizes")
        OBS.metrics.gauge("cluster.active_servers").set(table.num_active)
        resize_span = OBS.spans.begin("resize", version=table.version,
                                      active=table.num_active)
        if bus.active:
            bus.emit("power.resize", version=table.version,
                     active=table.num_active, powered_on=powered_on,
                     powered_off=powered_off)
            for rank in powered_on:
                bus.emit("server.state", rank=rank, state="on")
            for rank in powered_off:
                bus.emit("server.state", rank=rank, state="off")
        # The resize itself is instant — that is the paper's headline
        # agility claim — so its span closes immediately; the *debt* it
        # exposes (dirty entries / unverified ranks awaiting
        # re-integration) lives in the long resize.cycle span.
        resize_span.end()
        if (powered_on and self.reintegration_cycle is None
                and (not self.ech.dirty.is_empty()
                     or self.unverified_ranks)):
            self.reintegration_cycle = OBS.spans.begin(
                "resize.cycle", version=table.version,
                active=table.num_active)
        self._engine.span_parent = self.reintegration_cycle

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def crash_server(self, rank: int) -> CrashRecoveryWork:
        """An unexpected crash, *effects only*: the server's replicas
        are lost (the difference from :meth:`resize`'s power-down,
        which keeps data on disk), a new version excludes the rank,
        and every affected object is dirty-tracked.  The
        re-replication debt is returned as a
        :class:`CrashRecoveryWork` for the caller to commit — either
        immediately (:meth:`fail_server`) or after a simulated,
        interruptible recovery transfer has moved the bytes.
        """
        lost = dict(self.objects.replicas_on(rank))
        OBS.metrics.inc("cluster.failures")
        recovery_span = OBS.spans.begin("recovery.fail", rank=rank)
        if OBS.bus.active:
            OBS.bus.emit("server.fail", rank=rank,
                         lost_objects=len(lost),
                         lost_bytes=sum(lost.values()))
        # Crash: the replicas are gone.
        for oid in lost:
            self.objects.drop(oid, rank)
        self.servers[rank].power_off()
        self.ech.mark_failed(rank)
        self.unverified_ranks.discard(rank)
        curr = self.ech.current_version
        # Crash-consistency: the affected objects deviate from the
        # full-power layout *now*, whether or not the recovery bytes
        # have landed — the dirty entry is created with the crash, and
        # only an acknowledged transfer may clear it later.
        if not self.ech.is_full_power:
            for oid in lost:
                self.ech.dirty.insert(oid, curr)
        return CrashRecoveryWork(rank=rank, version=curr, lost=lost,
                                 span=recovery_span)

    def crash_recovery_outlook(self, work: CrashRecoveryWork
                               ) -> MigrationPlan:
        """The §IV crash re-replication rule, mutating nothing: what
        :meth:`commit_crash_recovery` would do *right now*.  One task
        per lost replica, in the crashed rank's landing order:
        copy from a surviving holder to the placement under the
        version current now, drop what that placement does not keep.
        An object with no surviving replica gets a task with no
        sources and no target — nothing can be copied, it contributes
        no bytes (its loss is the commit's business)."""
        oids = list(work.lost)
        try:
            targets = self._placement_rows(oids)
        except LookupError:
            # Fewer active servers than replicas: degraded mode —
            # keep as many copies alive as there are servers.
            targets = [self.active_ranks()] * len(oids)
        return MigrationPlan([
            self._task(oid, size, target if self.objects.holders(oid) else ())
            for (oid, size), target in zip(work.lost.items(), targets)])

    def commit_crash_recovery(self, work: CrashRecoveryWork,
                              strict: bool = True) -> int:
        """Land the re-replication debt of one crash: apply
        :meth:`crash_recovery_outlook`, planned against the version
        current *now* (which may be newer than the crash version —
        recovery re-plans at commit time).

        Returns the bytes re-replicated.  An object with no surviving
        replica is irrecoverable: with *strict* (the immediate
        :meth:`fail_server` path) that raises ``RuntimeError``; the
        chaos path passes ``strict=False`` so the loss is recorded in
        :attr:`lost_objects`, emitted as an ``object.lost`` event (the
        no-lost-object invariant's tripwire), and the remaining
        objects still recover.
        """
        moved = 0
        curr = self.ech.current_version
        for task in self.crash_recovery_outlook(work).tasks:
            if not task.from_servers:
                if strict:
                    raise RuntimeError(
                        f"object {task.oid} lost every replica in the "
                        f"crash of rank {work.rank}")
                self.lost_objects.append(task.oid)
                OBS.metrics.inc("cluster.lost_objects")
                if OBS.bus.active:
                    OBS.bus.emit("object.lost", oid=task.oid,
                                 rank=work.rank, nbytes=task.size)
                continue
            # Surplus copies outside the current placement (e.g. parked
            # by an earlier partial re-integration) are stale relative
            # to it and go with the apply, or the location-version
            # chain breaks.
            moved += self._apply(task)
            self.ech.location_version[task.oid] = curr
        OBS.metrics.inc("recovery.bytes", moved)
        if OBS.bus.active:
            OBS.bus.emit("recovery.rereplicate", rank=work.rank,
                         nbytes=moved)
        if work.span is not None:
            work.span.end(nbytes=moved)
        return moved

    def fail_server(self, rank: int) -> int:
        """A crash handled instantaneously: :meth:`crash_server`'s
        effects plus an immediate :meth:`commit_crash_recovery`.  When
        the rank is later repaired and re-activated, ordinary
        selective re-integration restores the layout.

        Returns the bytes re-replicated.  Raises ``RuntimeError`` if
        any object had *all* its replicas on the failed server
        (irrecoverable with this replication factor).
        """
        return self.commit_crash_recovery(self.crash_server(rank))

    def repair_server(self, rank: int) -> None:
        """The crashed server returns, empty.  It rejoins the expansion
        chain powered-off; a subsequent :meth:`resize` (plus selective
        re-integration) brings it back into the layout.

        Raises ``RuntimeError`` while any transfer still touching the
        rank is in flight (see :attr:`inflight_ranks`): re-admitting
        the rank mid-transfer would let a preempted migration commit
        against a membership that silently resurrected its failed
        endpoint.  Interrupt or drain the transfers first.
        """
        busy = self.inflight_ranks.get(rank, 0)
        if busy:
            raise RuntimeError(
                f"cannot repair rank {rank}: {busy} in-flight "
                f"transfer(s) still touch it; interrupt or drain them "
                f"first")
        self.ech.mark_repaired(rank)
        # It rejoined empty: until re-integration verifies it, the full
        # path must treat its contents as unknown.
        self.unverified_ranks.discard(rank)
        if OBS.bus.active:
            OBS.bus.emit("server.repair", rank=rank)

    # ------------------------------------------------------------------
    # transfer bookkeeping (fault-injection support)
    # ------------------------------------------------------------------
    def acquire_ranks(self, ranks: Iterable[int]) -> None:
        """Pin *ranks* as endpoints of an in-flight transfer."""
        for rank in ranks:
            self.inflight_ranks[rank] = self.inflight_ranks.get(rank, 0) + 1

    def release_ranks(self, ranks: Iterable[int]) -> None:
        """Release a transfer's pins (completion or preemption)."""
        for rank in ranks:
            left = self.inflight_ranks.get(rank, 0) - 1
            if left > 0:
                self.inflight_ranks[rank] = left
            else:
                self.inflight_ranks.pop(rank, None)

    def record_wasted_bytes(self, kind: str, nbytes: float) -> None:
        """Account partial-transfer bytes thrown away by a preemption."""
        self.wasted_bytes[kind] = self.wasted_bytes.get(kind, 0.0) + nbytes

    def replication_audit(self) -> Dict[str, int]:
        """Physical replication health of every object: counts of
        objects with zero replicas (*lost*) and with fewer than r
        (*under-replicated*, recovery or re-integration still owed).
        The chaos harness emits this as the periodic ``chaos.audit``
        event the no-lost-object / replication-restored invariants
        consume."""
        lost = under = 0
        for holders in self.objects.holder_counts():
            if holders == 0:
                lost += 1
            elif holders < self.replicas:
                under += 1
        return {"objects": len(self.objects), "lost": lost,
                "under_replicated": under}

    def read_with_fallback(self, oid: int) -> Tuple[int, bool]:
        """Degraded read along the replica chain: serve from the first
        placement replica that is powered on *and* physically holds
        the object; fall back to any powered-on holder outside the
        placement (a parked or mid-recovery copy).  Returns
        ``(rank, degraded)`` — degraded means the primary choice
        could not serve.  Raises ``LookupError`` when no powered-on
        server holds a replica (the object is unavailable until
        repair)."""
        if oid not in self.objects:
            raise KeyError(f"unknown object: {oid}")
        try:
            placement = self.ech.locate_current_replicas(oid).servers
        except LookupError:
            placement = ()
        stored = self.objects.holders(oid)
        for i, rank in enumerate(placement):
            if self.servers[rank].is_on and rank in stored:
                if i > 0:
                    OBS.metrics.inc("reads.degraded")
                return rank, i > 0
        for rank in stored:
            if self.servers[rank].is_on:
                OBS.metrics.inc("reads.degraded")
                return rank, True
        raise LookupError(f"no powered-on replica of object {oid}")

    # ------------------------------------------------------------------
    # IO path
    # ------------------------------------------------------------------
    def write(self, oid: int, size: int = DEFAULT_OBJECT_SIZE
              ) -> PlacementResult:
        """:meth:`write_many` of one object; returns its placement."""
        self.write_many((oid,), size)
        return self.ech.locate(oid)

    def write_many(self, oids: Sequence[int],
                   size: int = DEFAULT_OBJECT_SIZE) -> List[list]:
        """Write/overwrite *oids*, *size* bytes each, in the current
        version, in order.

        Replicas land on the Algorithm-1 placement; when the cluster is
        not at full power the writes are dirty-tracked for later
        re-integration.  Stale replicas from an earlier placement of
        the same object are dropped.  One placement gather serves the
        batch; a raise partway (a full server) leaves what a loop of
        single writes leaves.  Returns the server rows.
        """
        _check_size(size)
        write = self.objects.write
        landed = 0

        def land(oid: int, row: list) -> None:
            nonlocal landed
            write(oid, size, row)
            landed += 1

        try:
            return self.ech.record_writes(oids, land)
        finally:
            if landed:
                OBS.metrics.inc("cluster.writes", landed)
                OBS.metrics.inc("cluster.bytes_written", size * landed)

    def read(self, oid: int) -> Tuple[Tuple[int, ...], bool]:
        """Locate the newest replicas of *oid*.

        Returns ``(servers, available)`` where *servers* is the
        placement under the object's last-written version and
        *available* is True when at least one replica is on a powered-
        on server — with the primary design this is always True while
        the primaries are up.
        """
        if oid not in self.objects:
            raise KeyError(f"unknown object: {oid}")
        try:
            servers = self.ech.locate_current_replicas(oid).servers
        except LookupError:
            # Degraded membership (fewer active servers than r, e.g.
            # after a crash at minimum power): serve from wherever the
            # replicas physically are.
            servers = self.stored_locations(oid)
        available = any(self.servers[s].is_on for s in servers)
        return servers, available

    # ------------------------------------------------------------------
    # re-integration
    # ------------------------------------------------------------------
    def apply_migration(self, task: MigrationTask) -> None:
        """Execute one selective (Algorithm 2) move against the
        object table and publish it."""
        self._apply(task)
        OBS.metrics.inc("migration.objects")
        OBS.metrics.inc("migration.bytes", task.nbytes)
        if OBS.bus.active:
            OBS.bus.emit("migration.move", oid=task.oid, nbytes=task.nbytes,
                         to=list(task.moved_to),
                         dropped=list(task.dropped_from),
                         entry_version=task.entry_version,
                         target_version=task.target_version)

    def run_selective_reintegration(
        self, budget_bytes: Optional[int] = None,
    ) -> ReintegrationReport:
        """One Algorithm-2 pass (optionally byte-budgeted, the rate-
        limit hook)."""
        report = self._engine.step(budget_bytes=budget_bytes)
        self._settle_selective(report, report.caught_up)
        return report

    def _settle_selective(self, report: ReintegrationReport,
                          reconciled: bool) -> None:
        """What follows a selective pass, immediate or deferred: once the
        dirty table is *reconciled* against the current version, trust
        the re-powered ranks and close a drained ``resize.cycle``."""
        self.migrated_bytes["selective"] += report.bytes_migrated
        if reconciled:
            # Re-powered servers hold exactly what the layout expects
            # of them, no blanket re-copy needed.
            self.unverified_ranks.clear()
            if (self.reintegration_cycle is not None
                    and self.ech.is_full_power
                    and self.ech.dirty.is_empty()):
                self.reintegration_cycle.end(status="drained")
                self.reintegration_cycle = None
                self._engine.span_parent = None

    def selective_backlog_bytes(self) -> int:
        """Bytes the selective engine would move right now."""
        return self._engine.total_pending_bytes()

    def plan_selective_reintegration(self) -> ReintegrationPlan:
        """Snapshot one Algorithm-2 pass without mutating anything —
        the transfer layer routes an interruptible flow from it (see
        :class:`~repro.core.reintegration.ReintegrationPlan`)."""
        return self._engine.plan_pass()

    def commit_selective_reintegration(self, plan: ReintegrationPlan
                                       ) -> ReintegrationReport:
        """Commit a previously planned pass once its transfer has
        completed and been acknowledged.  Migrations are re-planned
        per entry at commit time (the membership may have moved on);
        the same cycle bookkeeping as
        :meth:`run_selective_reintegration` applies."""
        report = self._engine.commit_entries(plan.entries)
        # Reconciled when nothing is left a commit could act on.
        self._settle_selective(
            report, self._engine.plan_pass().actionable == 0)
        return report

    def plan_full_reintegration(self) -> MigrationPlan:
        """The "primary+full" rule (§V-B), mutating nothing.

        Re-integration is triggered by server *additions* (§III-E:
        "data re-integration means the data migration when servers are
        re-integrated to a cluster"), so only objects whose current
        placement touches an unverified (newly powered-on) rank are
        planned — sizing down must stay clean-up-free.  For those
        objects, because this path cannot tell which replicas on the
        re-added servers are stale, it re-copies **every** replica the
        placement maps onto them — §II-C's over-migration ("consistent
        hashing assumes that the added servers are empty") — plus any
        replica a server genuinely lacks, and drops surplus copies.
        """
        unverified = self.unverified_ranks
        objs, targets = self.object_placements()
        return MigrationPlan([
            self._task(oid, size, target, recopy=unverified)
            for (oid, size), target in zip(objs, targets)
            if any(r in unverified for r in target)])

    def run_full_reintegration(self) -> int:
        """Apply :meth:`plan_full_reintegration`: restore the layout
        for the just-re-powered servers without consulting the dirty
        table.

        Returns bytes migrated (including the redundant re-copies:
        they cost real IO bandwidth even when the payload is already
        in place).
        """
        moved = 0
        curr = self.ech.current_version
        full_power = self.ech.is_full_power
        full_span = OBS.spans.begin("reintegration.full",
                                    parent=self.reintegration_cycle,
                                    version=curr)
        for task in self.plan_full_reintegration().tasks:
            moved += self._apply(task)
            self.ech.location_version[task.oid] = curr
            if not full_power:
                # An object relocated below full power deviates from
                # the full-power layout — §III-E-2's definition of
                # dirty.  Recording it keeps a later *selective* pass
                # able to finish the job (full and selective modes
                # compose).
                self.ech.dirty.insert(task.oid, curr)
        if full_power:
            for oid in self.objects:
                self.ech.last_written[oid] = max(
                    self.ech.last_written.get(oid, 0), curr)
            self.ech.dirty.clear()
        self.unverified_ranks.clear()
        self.migrated_bytes["full"] += moved
        OBS.metrics.inc("migration.full_bytes", moved)
        if OBS.bus.active:
            OBS.bus.emit("migration.full", nbytes=moved, version=curr)
        full_span.end(nbytes=moved)
        if self.reintegration_cycle is not None and full_power:
            self.reintegration_cycle.end(status="drained")
            self.reintegration_cycle = None
            self._engine.span_parent = None
        return moved

    # ------------------------------------------------------------------
    # dynamic primary count (SpringFS-style extension)
    # ------------------------------------------------------------------
    def set_primary_count(self, new_p: int) -> int:
        """Re-layout to *new_p* primaries and migrate the data the new
        equal-work curve demands.  Only legal in a quiescent state
        (full power, dirty table empty) — see
        :mod:`repro.core.dynamic_primaries`.

        Returns bytes migrated.
        """
        from repro.core.dynamic_primaries import apply_relayout
        apply_relayout(self.ech, new_p)
        moved = 0
        curr = self.ech.current_version
        objs, targets = self.object_placements()
        for (oid, size), target in zip(objs, targets):
            moved += self._apply(self._task(oid, size, target))
            self.ech.location_version[oid] = curr
        self.migrated_bytes["full"] += moved
        return moved

    def describe(self) -> str:
        return (f"ElasticCluster({self.ech.describe()}, "
                f"objects={len(self.objects)}, "
                f"stored={self.total_stored_bytes()}B)")


class OriginalCHCluster(_ClusterBase):
    """The unmodified consistent-hashing baseline (Sheepdog semantics).

    Uniform vnode weights, no server roles, and a server turned down
    *leaves* the member set.  The ring holds all n servers and never
    changes: placing under a member set walks it skipping non-members,
    which gives the same replicas, in the same order, as a ring built
    from the members alone (one slot table per member set).

    * :meth:`remove_server` re-replicates the departing server's data
      *first* (returning the volume, which gates how fast the caller
      may shrink — Figure 2), then the server is out;
    * :meth:`add_server` re-admits the server **empty** and returns
      the migration volume consistent hashing will pull onto it
      (Figure 3's dip).
    """

    def __init__(self, n: int, replicas: int = 2,
                 vnodes_per_server: int = 1_000,
                 disk_bandwidth: float = 100e6) -> None:
        super().__init__(n, replicas, None, disk_bandwidth)
        self.vnodes_per_server = vnodes_per_server
        self.ring = HashRing(dict.fromkeys(self.servers, vnodes_per_server))
        self._members: FrozenSet[int] = frozenset(self.servers)
        #: Departures plus additions so far: the membership token.
        self._membership_changes = 0
        self.rereplicated_bytes = 0
        self.migrated_bytes = 0
        self._kernel = PlacementKernel(self.ring, replicas,
                                       placement_mode="original")

    # ------------------------------------------------------------------
    @property
    def members(self) -> Tuple[int, ...]:
        return tuple(self.active_ranks())

    @property
    def num_active(self) -> int:
        return len(self._members)

    @property
    def membership_token(self) -> int:
        """Moves whenever the member set does: one step per departure
        or addition."""
        return self._membership_changes

    def active_ranks(self) -> List[int]:
        """Members, ascending."""
        return sorted(self._members)

    def _table(self, members: FrozenSet[int]) -> SlotPlacementTable:
        """The slot table of one member set: the walk skips the rest."""
        return self._kernel.table(members, members.__contains__)

    def placement(self, oid: int) -> PlacementResult:
        try:
            return self._table(self._members).lookup(
                self._kernel.slot_of(oid))
        except LookupError as exc:
            raise LookupError(f"{exc} (oid {oid!r})") from None

    def placement_bulk(self, oids: Iterable[int]) -> BulkPlacement:
        """Vectorised :meth:`placement` over a key collection."""
        return self._placement_under(self._members, oids)

    def prehash(self, oids: Union[range, np.ndarray]) -> None:
        """See :meth:`~repro.core.kernel.PlacementKernel.prehash`."""
        self._kernel.prehash(oids)

    def _placement_under(self, members: FrozenSet[int],
                         oids: Iterable[int]) -> BulkPlacement:
        """Placement of *oids* while exactly *members* are in."""
        slots = self.ring.bulk_successor_slots(bulk_hash(oids))
        return self._table(members).gather(slots)

    def write(self, oid: int, size: int = DEFAULT_OBJECT_SIZE
              ) -> PlacementResult:
        """:meth:`write_many` of one object; returns its placement."""
        self.write_many((oid,), size)
        return self.placement(oid)

    def write_many(self, oids: Sequence[int],
                   size: int = DEFAULT_OBJECT_SIZE) -> List[list]:
        """Write/overwrite a batch of objects on the member set's
        placement, placed in one gather; returns the server rows."""
        _check_size(size)
        if not oids:
            return []
        members = self._members
        rows = self._kernel.rows(members, members.__contains__, oids)
        write = self.objects.write
        for oid, row in zip(oids, rows):
            write(oid, size, row)
        return rows

    def read(self, oid: int) -> Tuple[Tuple[int, ...], bool]:
        if oid not in self.objects:
            raise KeyError(f"unknown object: {oid}")
        servers = self.placement(oid).servers
        stored = self.objects.holders(oid)
        available = any(s in stored for s in servers)
        return servers, available

    # ------------------------------------------------------------------
    # §II-C's two rules.  Each is stated once, against the member set
    # it is given: the planners pass the hypothetical one and mutate
    # nothing, the mutators install the new one and apply.
    # ------------------------------------------------------------------
    def _without(self, rank: int) -> FrozenSet[int]:
        """The member set once *rank* has left."""
        if rank not in self._members:
            raise KeyError(f"server {rank} not a member")
        return self._members - {rank}

    def _with(self, ranks: Sequence[int]) -> FrozenSet[int]:
        """The member set once *ranks* have joined."""
        for rank in ranks:
            if rank in self._members:
                raise KeyError(f"server {rank} already a member")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in {list(ranks)}")
        return self._members.union(ranks)

    def _departure_tasks(self, rank: int, members: FrozenSet[int]
                         ) -> List[MigrationTask]:
        """Every replica *rank* holds goes to its placement under
        *members*, which no longer include the server."""
        victims = self.objects.replicas_on(rank)
        oids = [oid for oid, _ in victims]
        targets = _rows(self._placement_under(members, oids), oids)
        return [self._task(oid, size, target)
                for (oid, size), target in zip(victims, targets)]

    def _addition_tasks(self, members: FrozenSet[int]
                        ) -> List[MigrationTask]:
        """Every object settles on its placement under *members*, which
        include the new servers — assumed empty, so all the data
        mapping onto them moves."""
        objs = list(self.objects.items())
        oids = [oid for oid, _ in objs]
        targets = _rows(self._placement_under(members, oids), oids)
        return [self._task(oid, size, target)
                for (oid, size), target in zip(objs, targets)]

    def plan_departure(self, rank: int) -> MigrationPlan:
        """What :meth:`remove_server` would re-replicate (mutates
        nothing), announced as a ``recovery.plan`` event.

        §II-C: "before the re-replication finishes, the consistent
        hashing based distributed storage is not able to tolerate
        another server's departure" — callers model that delay as
        ``plan.total_bytes / available_bandwidth``."""
        plan = MigrationPlan(self._departure_tasks(rank, self._without(rank)))
        if OBS.bus.active:
            OBS.bus.emit("recovery.plan", departing=rank,
                         objects=plan.num_objects, nbytes=plan.total_bytes)
        return plan

    def plan_addition(self, ranks: Sequence[int]) -> MigrationPlan:
        """What re-adding *ranks* (assumed empty) in one step would
        migrate (mutates nothing), announced as a ``migration.plan``
        event — §II-C: "it migrates all the data that are supposed to
        place on the added servers"."""
        plan = MigrationPlan(self._addition_tasks(self._with(ranks)))
        if OBS.bus.active:
            OBS.bus.emit("migration.plan", planner="addition",
                         objects=plan.num_objects, nbytes=plan.total_bytes)
        return plan

    def remove_server(self, rank: int) -> int:
        """Power a server down, baseline-style: every replica it holds
        is first re-replicated to its successor placement, then the
        server leaves the member set.  Returns the bytes re-replicated —
        the "clean-up work" the elastic design eliminates.
        """
        members = self._without(rank)
        if len(members) < self.replicas:
            raise RuntimeError("removal would break replication level")
        departure_span = OBS.spans.begin("recovery.departure", rank=rank)
        self._members = members
        self._membership_changes += 1
        moved = sum(map(self._apply, self._departure_tasks(rank, members)))
        self.servers[rank].power_off()
        self.rereplicated_bytes += moved
        OBS.metrics.inc("recovery.bytes", moved)
        OBS.metrics.gauge("cluster.active_servers").set(len(members))
        if OBS.bus.active:
            OBS.bus.emit("server.state", rank=rank, state="off")
            OBS.bus.emit("recovery.rereplicate", rank=rank, nbytes=moved)
        departure_span.end(nbytes=moved)
        return moved

    def add_server(self, rank: int) -> int:
        """Re-add a server (empty — the baseline discarded its data on
        departure) and migrate everything the new member set maps onto
        it.  Returns the bytes migrated."""
        members = self._with([rank])
        addition_span = OBS.spans.begin("migration.addition", rank=rank)
        self.servers[rank].power_on()
        self._members = members
        self._membership_changes += 1
        moved = sum(map(self._apply, self._addition_tasks(members)))
        self.migrated_bytes += moved
        OBS.metrics.inc("migration.bytes", moved)
        OBS.metrics.gauge("cluster.active_servers").set(len(members))
        if OBS.bus.active:
            OBS.bus.emit("server.state", rank=rank, state="on")
            OBS.bus.emit("migration.addition", rank=rank, nbytes=moved)
        addition_span.end(nbytes=moved)
        return moved
