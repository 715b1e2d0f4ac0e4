"""The :class:`ElasticConsistentHash` facade — the paper's headline
object (§III-A).

It glues together the four mechanisms of the design:

* an equal-work-weighted hash ring (§III-C) over ranked servers, where
  ranks 1..p are primaries (§III-B) and the rank order is the
  expansion chain — the fixed order in which servers power on and off;
* primary-server placement (Algorithm 1) evaluated against *any*
  historical membership version, so the object is a pure
  ``locate(oid, version)`` oracle;
* membership versioning (§III-E-1): every resize appends an immutable
  :class:`~repro.core.versioning.MembershipTable`;
* dirty-data tracking (§III-E-2): writes issued while the cluster is
  not at full power are logged to the distributed dirty table.

The facade is *algorithmic* state only — which servers exist, which are
on, where objects belong.  Actual bytes live in
:class:`repro.cluster.cluster.ElasticCluster`, which drives this object.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core.dirty_table import DirtyTable
from repro.core.kernel import (BulkPlacement, PlacementKernel,
                               SlotPlacementTable)
from repro.core.layout import EqualWorkLayout
from repro.core.placement import (
    ChainMode,
    PlacementResult,
    place_original,
    place_primary,
)
from repro.core.versioning import MembershipTable, VersionHistory
from repro.hashring.hashing import bulk_hash
from repro.hashring.ring import HashRing
from repro.obs.runtime import OBS

__all__ = ["ElasticConsistentHash"]


class ElasticConsistentHash:
    """Elastic consistent hashing over *n* ranked servers.

    Parameters
    ----------
    n:
        Cluster size.  Servers are the ranks ``1..n``.
    replicas:
        Replication factor *r* (paper evaluates r=2).
    B:
        Equal-work vnode budget (Equations 1-2).
    p:
        Primary count override; defaults to ``ceil(n / e^2)``.
    chain:
        Replica-walk chaining mode, see :mod:`repro.core.placement`.
    layout_mode:
        ``"equal-work"`` (the paper's design) or ``"uniform"``
        (original-CH weights; used where the paper isolates
        re-integration from layout effects, §V-A).
    placement_mode:
        ``"primary"`` (Algorithm 1) or ``"original"`` (plain successor
        placement that skips inactive servers).  Versioning, offload
        tracking and re-integration work identically in both — they
        only need ``locate`` to be a pure function of (oid, version).
    dirty_table:
        Backing table override (tests inject pre-populated ones).

    Examples
    --------
    >>> ech = ElasticConsistentHash(n=10, replicas=2)
    >>> ech.layout.p
    2
    >>> placement = ech.locate(oid=10010)
    >>> len(placement.servers)
    2
    >>> _ = ech.set_active(6)       # power down to 6 servers
    >>> ech.current_version
    2
    """

    def __init__(
        self,
        n: int,
        replicas: int = 2,
        B: int = 10_000,
        p: Optional[int] = None,
        chain: ChainMode = "walk",
        layout_mode: str = "equal-work",
        placement_mode: str = "primary",
        dirty_table: Optional[DirtyTable] = None,
    ) -> None:
        if layout_mode == "equal-work":
            layout = EqualWorkLayout.create(n, replicas, B, p)
        elif layout_mode == "uniform":
            layout = EqualWorkLayout.uniform(n, replicas, B, p)
        else:
            raise ValueError(f"unknown layout_mode: {layout_mode!r}")
        if placement_mode not in ("primary", "original"):
            raise ValueError(f"unknown placement_mode: {placement_mode!r}")
        self.layout_mode = layout_mode
        self.placement_mode = placement_mode
        self.replicas = replicas
        self.chain: ChainMode = chain
        self._use_layout(layout)

        self.history = VersionHistory(ranks=list(self.layout.ranks))

        self.dirty = DirtyTable() if dirty_table is None else dirty_table

        #: Last version each object was written in — the object-header
        #: (version, dirty-bit) state of §III-E-2, kept here because
        #: placement-level staleness checks need it.
        self.last_written: Dict[int, int] = {}
        #: The version whose placement matches where the object's
        #: replicas physically are.  Writes set it to the write
        #: version; partial re-integrations advance it to their target
        #: version (Figure 6: after the v10 migration the header reads
        #: version 10 while the dirty entry still says 9, which is why
        #: the v11 pass migrates "from server 9", not from the v9
        #: locations).
        self.location_version: Dict[int, int] = {}
        #: Ranks that have *crashed* (as opposed to powered down):
        #: excluded from the expansion chain until repaired.  Failure
        #: handling is not in the paper's evaluation, but Sheepdog's
        #: recovery machinery — which the elastic design reuses — is
        #: "mainly utilized for tolerating failures" (§IV), so the
        #: facade models both exits from the active set.
        self.failed: set = set()

    def _use_layout(self, layout: EqualWorkLayout) -> None:
        """Place by *layout* from now on: a ring built from its weights
        (in rank order) and a slot-table kernel for its roles.  Neither
        ever changes; the next layout gets new ones."""
        self.layout = layout
        self.ring = HashRing({rank: layout.weight_of(rank)
                              for rank in layout.ranks})
        #: Slot-table placement kernel: places every slot once per
        #: active set (versions with equal sets share the table), so
        #: ``locate`` is a table read and ``locate_bulk`` is pure array
        #: work.
        self._kernel = PlacementKernel(
            self.ring, self.replicas,
            placement_mode=self.placement_mode,
            chain=self.chain,
            is_primary=self.is_primary,
        )
        #: The membership :meth:`locate` last placed under and its slot
        #: table: a run of locates under one version asks the kernel once.
        self._located: Tuple[Optional[MembershipTable],
                             Optional[SlotPlacementTable]] = (None, None)

    # ------------------------------------------------------------------
    # roles and power state
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def p(self) -> int:
        return self.layout.p

    def is_primary(self, rank: int) -> bool:
        return self.layout.is_primary(rank)

    def is_active(self, rank: int, version: Optional[int] = None) -> bool:
        table = (self.history.current if version is None
                 else self.history.get(version))
        return table.is_active(rank)

    @property
    def current_version(self) -> int:
        return self.history.current_version

    @property
    def membership(self) -> MembershipTable:
        return self.history.current

    @property
    def num_active(self) -> int:
        return self.history.current.num_active

    @property
    def is_full_power(self) -> bool:
        return self.history.current.is_full_power

    @property
    def min_active(self) -> int:
        """Smallest legal active count: the primaries (§III-C)."""
        return self.layout.p

    # ------------------------------------------------------------------
    # resizing along the expansion chain
    # ------------------------------------------------------------------
    def set_active(self, k: int) -> MembershipTable:
        """Resize to *k* active servers, clamped to ``[p, n]``, by
        powering the expansion chain: the active set is the first *k*
        non-failed ranks in chain order (the prefix ``{1..k}`` while
        nothing has crashed).

        Returns the new membership table (a no-op resize returns the
        current one without creating a version).
        """
        available = [r for r in self.layout.ranks if r not in self.failed]
        if not available:
            raise RuntimeError("every server has failed")
        k = max(min(self.min_active, len(available)),
                min(len(available), k))
        target = frozenset(available[:k])
        if target == self.history.current.active:
            return self.history.current
        return self.history.advance(sorted(target))

    # ------------------------------------------------------------------
    # failures (crashes, as opposed to planned power-downs)
    # ------------------------------------------------------------------
    def mark_failed(self, rank: int) -> MembershipTable:
        """A server crashed: remove it from the active set (new
        version) and exclude it from the chain until repaired.  Unlike
        a power-down, the caller must re-replicate the replicas it
        held — crashes lose data."""
        if rank in self.failed:
            raise ValueError(f"rank {rank} already failed")
        if rank not in set(self.layout.ranks):
            raise KeyError(f"unknown rank: {rank}")
        self.failed.add(rank)
        active = self.history.current.active - {rank}
        if not active:
            self.failed.discard(rank)
            raise RuntimeError("failure would empty the cluster")
        # Nothing to invalidate: slot tables are keyed by active set, a
        # crash makes a new set, and every older version still reads the
        # table of its own set.
        if active == self.history.current.active:
            return self.history.current   # was not active anyway
        return self.history.advance(sorted(active))

    def mark_repaired(self, rank: int) -> None:
        """The crashed server is back (empty); it rejoins the chain but
        stays powered off until the next :meth:`set_active` brings it
        in."""
        try:
            self.failed.remove(rank)
        except KeyError:
            raise ValueError(f"rank {rank} is not failed") from None

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def locate(self, oid: int,
               version: Optional[int] = None) -> PlacementResult:
        """Replica locations of *oid* under *version* (default:
        current).  Pure: repeated calls with the same arguments return
        the same servers — Algorithm 2's ``locate_ser``."""
        table = (self.history.current if version is None
                 else self.history.get(version))
        located, tbl = self._located
        if located is not table:
            tbl = self._kernel.table(table.active, table.is_active)
            self._located = (table, tbl)
        try:
            return tbl.lookup(self._kernel.slot_of(oid))
        except LookupError as exc:
            raise LookupError(f"{exc} (oid {oid!r})") from None

    def _locate_reference(self, oid: int,
                          table: MembershipTable) -> PlacementResult:
        """The original per-object ring walk, bypassing the slot
        table — the oracle the kernel's equivalence suite compares
        against."""
        if self.placement_mode == "original":
            return place_original(self.ring, oid, self.replicas,
                                  is_active=table.is_active)
        return place_primary(
            self.ring, oid, self.replicas,
            is_primary=self.is_primary,
            is_active=table.is_active,
            chain=self.chain,
        )

    def prehash(self, oids: Union[range, np.ndarray]) -> None:
        """Hash *oids* (a ``range`` or an integer array) into the
        oid→slot memo now, in one array pass, so their first
        :meth:`locate` under any version is two lookups."""
        self._kernel.prehash(oids)

    def locate_bulk(self, oids: Iterable[int],
                    version: Optional[int] = None) -> BulkPlacement:
        """Vectorised :meth:`locate` over a whole key collection.

        Hashes all keys (``bulk_hash``), resolves successor slots in
        one ``searchsorted``, and gathers placements from the slot
        table of the version's active set — built whole, in one array
        pass of the placement rule, if no version with that set was
        looked up before — so there is no per-object (or per-slot)
        Python work.
        Returns compact arrays; see
        :class:`~repro.core.kernel.BulkPlacement`.
        """
        return self.locate_bulk_positions(bulk_hash(oids), version)

    def locate_bulk_positions(self, positions: np.ndarray,
                              version: Optional[int] = None
                              ) -> BulkPlacement:
        """Bulk placement for pre-hashed ring *positions* (callers that
        cache hashes, e.g. repeated sweeps over a fixed catalog)."""
        table = (self.history.current if version is None
                 else self.history.get(version))
        slots = self.ring.bulk_successor_slots(
            np.asarray(positions, dtype=np.uint64))
        tbl = self._kernel.table(table.active, table.is_active)
        return tbl.gather(slots)

    def record_write(self, oid: int) -> PlacementResult:
        """:meth:`record_writes` of one oid; returns its placement."""
        self.record_writes((oid,))
        return self.locate(oid)

    def record_writes(
        self,
        oids: Sequence[int],
        land: Optional[Callable[[int, list], None]] = None,
    ) -> List[list]:
        """Place a batch of writes in the current version — one gather
        of slot-table rows, no :class:`PlacementResult` — then, per oid
        in order, tag its header with the version, log a dirty entry
        unless at full power (§III-E-2), and hand ``(oid, servers)`` to
        *land*.  A raise leaves what a loop of single writes leaves
        (``LookupError`` raises before anything changes).  Returns the
        server rows."""
        if not oids:
            return []
        table = self.history.current
        version = table.version
        rows = self._kernel.rows(table.active, table.is_active, oids)
        insert = None if table.is_full_power else self.dirty.insert
        last_written, location_version = (self.last_written,
                                          self.location_version)
        recorded = 0
        try:
            for oid, row in zip(oids, rows):
                last_written[oid] = version
                location_version[oid] = version
                if insert is not None:
                    insert(oid, version)
                recorded += 1
                if land is not None:
                    land(oid, row)
        finally:
            if recorded:
                if insert is not None:
                    OBS.metrics.inc("core.offloaded_writes", recorded)
                OBS.metrics.inc("core.writes", recorded)
        return rows

    def locate_current_replicas(self, oid: int) -> PlacementResult:
        """Where the *newest* replicas of *oid* physically are: the
        placement under its location version (write or last partial
        re-integration, whichever is later)."""
        version = self.location_version.get(oid)
        if version is None:
            raise KeyError(f"object never written: {oid}")
        return self.locate(oid, version)

    def is_dirty(self, oid: int) -> bool:
        """Object-header dirty bit: the object's last write has not yet
        been re-integrated into a full-power layout."""
        return self.dirty.contains_oid(oid)

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def blocks_per_rank(self, oids: Iterable[int],
                        version: Optional[int] = None) -> Dict[int, int]:
        """Replica count per rank for a set of objects — the y-axis of
        Figure 5."""
        oid_list = list(oids)
        counts: Dict[int, int] = {r: 0 for r in self.layout.ranks}
        if not oid_list:
            return counts
        bulk = self.locate_bulk(oid_list, version)
        if not bulk.all_ok:
            bad = int(np.flatnonzero(~bulk.ok)[0])
            self.locate(oid_list[bad], version)   # raises with the oid
        per_rank = np.bincount(bulk.servers.ravel(),
                               minlength=max(self.layout.ranks) + 1)
        for r in counts:
            counts[r] = int(per_rank[r])
        return counts

    def describe(self) -> str:
        """One-line configuration summary for logs and examples."""
        return (f"ElasticConsistentHash(n={self.n}, r={self.replicas}, "
                f"p={self.p}, B={self.layout.B}, chain={self.chain!r}, "
                f"version={self.current_version}, "
                f"active={self.num_active}/{self.n})")
