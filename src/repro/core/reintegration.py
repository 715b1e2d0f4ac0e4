"""Selective data re-integration — Algorithm 2 (§III-E-3).

When servers power back on, offloaded replicas must migrate to the
servers they were offloaded from, restoring the equal-work layout.  The
original consistent hashing "over-migrates all the data based on
changed data layout"; the selective engine instead walks the dirty
table and migrates only objects whose historical placement differs from
their placement in the current version.

Faithfulness to Algorithm 2:

* entries are fetched in (version ascending, OID ascending) order;
* a version change since the last fetch restarts the scan from the
  head (``restart_dirty_entry``, line 2-4);
* an entry is acted on only when the current version has **more**
  active servers than the entry's version (line 6);
* migration moves data from ``locate(OID, Ver)`` to
  ``locate(OID, Curr_Ver)`` (lines 7-9);
* the entry is removed only when the current version is full power
  (lines 11-13); otherwise it stays for the next size-up.

One extension the paper describes in prose (§III-E-2: the header
version "avoids stale data") is implemented explicitly: when an object
has been re-written in a *newer* version than the fetched entry, the
entry is stale — its migration is skipped (the newer entry supersedes
it) and at full power it is removed alongside.

Rate limiting (§II-C, problem 2: "the rate of migration operation is
not controlled") is expressed as a per-call byte budget: the driver —
the cluster simulator's migration engine — calls :meth:`step` once per
tick with the bytes the token bucket grants that tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.dirty_table import DirtyEntry
from repro.core.elastic import ElasticConsistentHash
from repro.obs.runtime import OBS
from repro.obs.spans import Span

__all__ = ["MigrationTask", "MigrationPlan", "ReintegrationReport",
           "ReintegrationPlan", "ReintegrationEngine"]

ObjectSizeFn = Callable[[int], int]
MigrateCallback = Callable[["MigrationTask"], None]

DEFAULT_OBJECT_SIZE = 4 * 1024 * 1024  # Sheepdog's 4 MB objects (§V-A)


class MigrationTask(NamedTuple):
    """One object's data movement — the record every movement rule
    (selective and full re-integration, crash re-replication,
    original-CH addition and departure) plans and the cluster's one
    applier executes.

    ``moved_to`` are the servers that must *receive* a copy (read from
    any of ``from_servers``, the current holders); ``dropped_from`` are
    holders whose replica becomes surplus once the copies have landed.
    A task with no ``from_servers`` is an object nothing can be copied
    from (every replica lost).
    """

    oid: int
    #: Bytes per copy.
    size: int
    from_servers: Tuple[int, ...] = ()
    #: The target placement.
    to_servers: Tuple[int, ...] = ()
    moved_to: Tuple[int, ...] = ()
    dropped_from: Tuple[int, ...] = ()
    #: Selective moves only: the dirty entry's version and the version
    #: it migrates to (0 for the rules that read no dirty table).
    entry_version: int = 0
    target_version: int = 0

    @property
    def nbytes(self) -> int:
        """Copy traffic: one object size per receiving server."""
        return self.size * len(self.moved_to)


@dataclass
class MigrationPlan:
    """What one movement rule would do right now, computed without
    mutating anything: one :class:`MigrationTask` per object the rule
    settles (a task may have nothing to copy or drop), in apply
    order."""

    tasks: List[MigrationTask] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.tasks)

    @property
    def num_objects(self) -> int:
        """Objects that receive at least one copy."""
        return sum(1 for t in self.tasks if t.moved_to)

    @property
    def oids(self) -> Tuple[int, ...]:
        """Objects the apply settles."""
        return tuple(t.oid for t in self.tasks)

    def bytes_per_destination(self) -> Dict[int, int]:
        """Ingest volume per receiving server — the hot spot that
        bounds recovery time."""
        out: Dict[int, int] = {}
        for t in self.tasks:
            for dst in t.moved_to:
                out[dst] = out.get(dst, 0) + t.size
        return out

    def involved_ranks(self) -> Tuple[int, ...]:
        """Every rank a planned copy reads from or writes to, sorted —
        the fault-domain of the transfer that will carry this plan (a
        drop moves no bytes and pins nothing)."""
        ranks: set = set()
        for t in self.tasks:
            if t.moved_to:
                ranks.update(t.from_servers)
                ranks.update(t.moved_to)
        return tuple(sorted(ranks))

    def serialized_seconds(self, per_server_bandwidth: float,
                           fraction_for_recovery: float = 1.0) -> float:
        """Serialized transfer time: the whole plan pushed through one
        disk-equivalent pipeline.

        Sheepdog-era recovery walks its queue object by object with
        little parallelism, which is what made the paper's testbed
        take tens of seconds per departure (Figure 2); this estimate —
        total plan bytes over one server's granted bandwidth — is the
        faithful model of that behaviour and the one the agility
        experiment uses.

        A degraded-bandwidth fault can legitimately drive a capacity to
        0: inputs that would divide by zero or go negative/NaN are
        rejected with ``ValueError``."""
        if (not isinstance(per_server_bandwidth, (int, float))
                or not math.isfinite(per_server_bandwidth)
                or per_server_bandwidth <= 0):
            raise ValueError(
                f"per_server_bandwidth must be a positive, finite number "
                f"of bytes/s, got {per_server_bandwidth!r}")
        if (not isinstance(fraction_for_recovery, (int, float))
                or not math.isfinite(fraction_for_recovery)
                or not 0 < fraction_for_recovery <= 1):
            raise ValueError(
                f"fraction_for_recovery must be in (0, 1], got "
                f"{fraction_for_recovery!r}")
        return self.total_bytes / (per_server_bandwidth
                                   * fraction_for_recovery)


@dataclass
class ReintegrationReport:
    """Accumulated outcome of one or more :meth:`step` calls."""

    tasks: List[MigrationTask] = field(default_factory=list)
    removed: List[DirtyEntry] = field(default_factory=list)
    entries_processed: int = 0
    entries_migrated: int = 0
    entries_removed: int = 0
    entries_stale: int = 0
    bytes_migrated: int = 0
    caught_up: bool = False


@dataclass
class ReintegrationPlan(MigrationPlan):
    """A non-mutating snapshot of one Algorithm-2 pass: the entries a
    commit would scan and the migration each actionable entry implies
    *under the planning version*.  Built by
    :meth:`ReintegrationEngine.plan_pass` and consumed by
    :meth:`ReintegrationEngine.commit_entries` — the split lets a
    transfer layer move the bytes (interruptibly) before any placement
    state mutates, so a crash mid-transfer simply discards the plan.
    """

    version: int = 0
    entries: List[DirtyEntry] = field(default_factory=list)
    #: Entries a commit would migrate and/or remove.
    actionable: int = 0

    @property
    def oids(self) -> Tuple[int, ...]:
        """OIDs of every scanned entry, in fetch order: a commit may
        remove an entry that has no task (stale, or already in place)."""
        return tuple(e.oid for e in self.entries)


class ReintegrationEngine:
    """Algorithm 2's background re-integration process.

    Parameters
    ----------
    ech:
        The elastic-hashing facade (placement + versions + dirty table).
    object_size:
        ``oid -> bytes`` oracle; defaults to constant 4 MB objects.
    on_migrate:
        Callback invoked for every :class:`MigrationTask` — the cluster
        layer hooks the actual byte movement here.
    """

    def __init__(
        self,
        ech: ElasticConsistentHash,
        object_size: Optional[ObjectSizeFn] = None,
        on_migrate: Optional[MigrateCallback] = None,
    ) -> None:
        self.ech = ech
        self.object_size: ObjectSizeFn = (
            object_size if object_size is not None
            else (lambda _oid: DEFAULT_OBJECT_SIZE))
        self.on_migrate = on_migrate
        #: Parent span for ``reintegration.pass`` spans — the cluster
        #: layer points this at the open ``resize.cycle`` span so a
        #: trace reader can attribute each pass to its resize.
        self.span_parent = None

        self._last_version = 0          # Algorithm 2's Last_Ver
        self._snapshot: List[DirtyEntry] = []
        self._cursor = 0

    def _restart(self) -> None:
        """``restart_dirty_entry()``: re-snapshot in fetch order and
        rewind to the head."""
        self._snapshot = self.ech.dirty.entries()
        self._cursor = 0

    # ------------------------------------------------------------------
    def plan_entry(self, entry: DirtyEntry
                   ) -> Tuple[str, Optional[MigrationTask]]:
        """Algorithm 2 lines 5-9 for one entry under the current
        version, mutating nothing — the one statement of the rule that
        :meth:`step`, :meth:`commit_entries`, :meth:`plan_pass` and
        :meth:`total_pending_bytes` all go through.

        Returns ``(verdict, task)``: ``"stale"`` — a newer write
        supersedes the entry; ``"wait"`` — the cluster has not grown
        past the entry's version (line 6); ``"grown"`` — act, with the
        migration the entry implies or None when placements already
        agree.

        The *from* side is the object's **location version** — a prior
        partial re-integration may already have moved the replicas past
        the entry's write version (Figure 6's v10→v11 step migrates
        from server 9, where the v10 pass parked the copy)."""
        ech = self.ech
        if ech.last_written.get(entry.oid, entry.version) > entry.version:
            return "stale", None
        if ech.num_active <= ech.history.num_active(entry.version):
            return "wait", None
        loc_ver = ech.location_version.get(entry.oid, entry.version)
        old = ech.locate(entry.oid, loc_ver).servers
        new = ech.locate(entry.oid).servers
        moved_to = tuple(s for s in new if s not in old)
        dropped = tuple(s for s in old if s not in new)
        if not moved_to and not dropped:
            return "grown", None
        return "grown", MigrationTask(
            oid=entry.oid,
            size=self.object_size(entry.oid),
            from_servers=old,
            to_servers=new,
            moved_to=moved_to,
            dropped_from=dropped,
            entry_version=entry.version,
            target_version=ech.current_version,
        )

    # ------------------------------------------------------------------
    def step(self, budget_bytes: Optional[int] = None
             ) -> ReintegrationReport:
        """Run the Algorithm 2 loop until the dirty table is drained or
        the byte budget is spent.

        Returns a report; ``caught_up`` is True when every entry
        currently in the table has been scanned against the current
        version (the table itself may still be non-empty if the version
        is not full power).
        """
        report = ReintegrationReport()
        curr_ver = self.ech.current_version
        if curr_ver > self._last_version:
            self._restart()
            self._last_version = curr_ver

        pass_span = None
        if self._cursor < len(self._snapshot):
            pass_span = OBS.spans.begin("reintegration.pass",
                                        parent=self.span_parent,
                                        version=curr_ver)

        try:
            while self._cursor < len(self._snapshot):
                if (budget_bytes is not None
                        and report.bytes_migrated >= budget_bytes):
                    break
                # The cursor moves past an entry once it is processed:
                # when ``on_migrate`` raises, the next step retries it.
                self._process_entry(self._snapshot[self._cursor], report)
                self._cursor += 1
            else:
                # Scanned every entry without exhausting a budget.
                report.caught_up = True
        except BaseException:
            self._close(pass_span, report, status="failed",
                        caught_up=report.caught_up)
            raise
        self._close(pass_span, report, caught_up=report.caught_up)
        return report

    def _process_entry(self, entry: DirtyEntry,
                       report: ReintegrationReport) -> None:
        """Plan one entry and apply the plan (lines 5-13) — shared by
        the immediate :meth:`step` loop and the deferred
        :meth:`commit_entries` path."""
        report.entries_processed += 1
        verdict, task = self.plan_entry(entry)
        if verdict == "wait":
            return
        if verdict == "stale":
            report.entries_stale += 1
        else:
            if task is not None:
                if self.on_migrate is not None:
                    self.on_migrate(task)
                report.tasks.append(task)
                report.bytes_migrated += task.nbytes
                report.entries_migrated += 1
            # The replicas now sit at the current version's
            # placement — advance the header's location version so
            # a later pass migrates from here (Figure 6).
            self.ech.location_version[entry.oid] = self.ech.current_version
        # Lines 11-13: clear only at full power.
        if self.ech.is_full_power:
            self.ech.dirty.remove(entry)
            report.removed.append(entry)
            report.entries_removed += 1

    # ------------------------------------------------------------------
    # deferred (plan → transfer → commit) path
    # ------------------------------------------------------------------
    def plan_pass(self) -> ReintegrationPlan:
        """Snapshot what one pass would do under the current version,
        without mutating anything.  The transfer layer sizes and routes
        an interruptible flow from the plan; the plan's entries are
        handed back to :meth:`commit_entries` once the bytes have
        actually moved and been acknowledged."""
        full_power = self.ech.is_full_power
        plan = ReintegrationPlan(version=self.ech.current_version,
                                 entries=self.ech.dirty.entries())
        # Objects an earlier entry of this pass brings to the current
        # placement (a write and a later crash each log one): the pass
        # advances their location version, so a second grown entry
        # finds nothing left to move.
        settled: set = set()
        for entry in plan.entries:
            verdict, task = self.plan_entry(entry)
            # A commit migrates a grown entry, and at full power also
            # removes a stale row.
            if verdict == "grown" or (verdict == "stale" and full_power):
                plan.actionable += 1
            if task is not None and entry.oid not in settled:
                plan.tasks.append(task)
            if verdict == "grown":
                settled.add(entry.oid)
        return plan

    def commit_entries(self, entries: Sequence[DirtyEntry]
                       ) -> ReintegrationReport:
        """Apply Algorithm-2 processing to a fixed entry list — the
        commit half of the deferred path, run when the transfer
        carrying a plan completes and is acknowledged.

        Migrations are re-planned per entry *at commit time*: the
        membership may have advanced since :meth:`plan_pass` (an
        unrelated crash, a resize), and placement state must only ever
        move toward the version that is current when the bytes land.
        Entries no longer present in the table (superseded or already
        removed) are skipped.  The scan cursor of :meth:`step` is not
        touched.
        """
        report = ReintegrationReport()
        live = [e for e in entries
                if self.ech.dirty.contains(e.oid, e.version)]
        commit_span = None
        if live:
            commit_span = OBS.spans.begin("reintegration.commit",
                                          parent=self.span_parent,
                                          version=self.ech.current_version)
        try:
            for entry in live:
                self._process_entry(entry, report)
        except BaseException:
            self._close(commit_span, report, status="failed")
            raise
        report.caught_up = True
        self._close(commit_span, report)
        return report

    def _close(self, span: Optional[Span], report: ReintegrationReport,
               **fields: object) -> None:
        """Publish *report* — whole or, when a migration raised,
        partial — and end *span* (if one was opened) with its counts."""
        self._record(report)
        if span is not None:
            span.end(entries=report.entries_processed,
                     migrated=report.entries_migrated,
                     nbytes=report.bytes_migrated, **fields)

    def _record(self, report: ReintegrationReport) -> None:
        """Publish one step's outcome to the observability layer."""
        m = OBS.metrics
        m.inc("reintegration.entries", report.entries_processed)
        m.inc("reintegration.migrated", report.entries_migrated)
        m.inc("reintegration.stale", report.entries_stale)
        m.inc("reintegration.removed", report.entries_removed)
        m.inc("reintegration.bytes", report.bytes_migrated)
        if OBS.bus.active and report.entries_processed:
            OBS.bus.emit("reintegration.step",
                         entries=report.entries_processed,
                         migrated=report.entries_migrated,
                         stale=report.entries_stale,
                         removed=report.entries_removed,
                         nbytes=report.bytes_migrated,
                         caught_up=report.caught_up)

    def total_pending_bytes(self) -> int:
        """Copy traffic a pass would move if it ran now: the planned
        pass's ``total_bytes``."""
        return self.plan_pass().total_bytes
