"""The slot-table placement kernel: memoized placement per active set
and vectorised bulk locate.

The whole-cluster sweeps that dominate the paper's evaluation — resize
planning, Algorithm 2 re-integration scans, fsck, distribution
analysis, trace replay — all re-evaluate Algorithm 1 for every object.
But for a *fixed* set of active servers the placement of a key depends
only on its successor slot (the first vnode at or after ``hash(key)``):
every key landing in the same arc walks the identical server sequence.
There are only V vnode slots, so the placement under an active set is
a table of V rows — computed whole, in one array pass of the placement
rule, the first time anything asks about that set, and immutable from
then on (1–12 ms per set; a set pays for itself after a few hundred
lookups, and the workloads issue thousands).  Algorithm 1 reads only
which servers are on, so versions with equal active sets (a resize
schedule that revisits a size, rank-order power-down) share one table.

Two access paths read the table:

* scalar ``lookup(slot)`` — one list access; the frozen
  :class:`~repro.core.placement.PlacementResult` of a slot is built
  from its array row on the first ask and kept.  The
  :class:`~repro.core.elastic.ElasticConsistentHash` facade adds an
  oid→slot cache on top, so a repeated ``locate`` never touches the
  ring again.  Callers that know their oids ahead (a workload phase, a
  block of minted ids) fill it with ``prehash`` in one array pass, so
  even a first ``locate`` skips the scalar hash and bisect;
* vectorised ``gather(slots)`` — one fancy-index produces a compact
  :class:`BulkPlacement` (server-id matrix plus degraded / offloaded
  bitmasks) for a whole key array; ``rows(slots)`` is the same gather
  as plain server lists, for a batch of writes that needs only where
  its replicas go.

The reference walks (``place_*_from_slot``) live only in
:mod:`repro.core.placement`: they are the oracle the tests hold every
row to, never a path of this module.

Nothing is ever invalidated: a kernel belongs to one (immutable) ring
and one role assignment, and a table belongs to one membership key.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Callable, Dict, Hashable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro.core.placement import ChainMode, PlacementResult
from repro.hashring.hashing import bulk_hash, hash64
from repro.hashring.ring import HashRing

__all__ = ["BulkPlacement", "SlotPlacementTable", "PlacementKernel"]

Predicate = Callable[[Hashable], bool]

_DEGRADED = np.uint8(1)
_SKIPPED = np.uint8(2)

#: Cap on the facade-level oid→slot cache (see :class:`PlacementKernel`).
_SLOT_CACHE_MAX = 1 << 20

#: Sentinel for "no table cached yet" (any hashable is a legal key).
_NO_KEY = object()


@dataclass(frozen=True)
class BulkPlacement:
    """Placements of N keys as compact arrays (no per-object objects).

    Attributes
    ----------
    servers:
        ``(N, r)`` array of server ids in replica order.  A row whose
        key was not placeable (see :attr:`ok`) names no server: it is
        all ``-1`` on a ring of integer ids, all ``None`` (object
        array) on any other.
    degraded:
        ``(N,)`` bool — the §III-B special case fired for this key.
    skipped_inactive:
        ``(N,)`` bool — an inactive server was walked past (the write
        would be *offloaded* and dirty-tracked).
    ok:
        ``(N,)`` bool — False where the scalar path would have raised
        ``LookupError`` (fewer than r eligible servers).
    reasons:
        Row index → the scalar path's ``LookupError`` message, for the
        rows where :attr:`ok` is False.
    """

    servers: np.ndarray
    degraded: np.ndarray
    skipped_inactive: np.ndarray
    ok: np.ndarray
    reasons: Mapping[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.servers.shape[0])

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())

    def rows(self) -> List[List[int]]:
        """Server rows as plain Python ints (cheap C-level conversion)."""
        return self.servers.tolist()

    def result(self, i: int) -> PlacementResult:
        """Row *i* re-materialised as a :class:`PlacementResult`
        (raising ``LookupError`` with the scalar path's reason where
        the row is not placeable)."""
        if not self.ok[i]:
            raise LookupError(self.reasons[int(i)])
        return PlacementResult(
            tuple(self.servers[i].tolist()),
            degraded=bool(self.degraded[i]),
            skipped_inactive=bool(self.skipped_inactive[i]),
        )


class _SlotClasses(NamedTuple):
    """What the array pass knows about one membership: the vnode slots
    of each eligibility class as sorted index arrays ("next eligible
    slot from a cursor" is one ``searchsorted``), and how many
    *servers* each class has ("no eligible server left" is a count
    comparison, not a walk round the circle)."""

    by_role: Tuple[np.ndarray, np.ndarray, np.ndarray]  # see _ANY/_SEC/_PRI
    inactive: np.ndarray
    is_primary: np.ndarray        # per server index
    n_active: int
    n_secondary: int              # active secondaries
    n_primary: int                # active primaries
    #: ``chain="rehash"`` only: per server index, the slot the next
    #: replica's search restarts at once that server is selected —
    #: ``successor(hash(server))``, as ``place_primary_from_slot``
    #: computes it per replica.
    rehash_cursor: Optional[np.ndarray]


# Role constraint of one replica search: indices into ``by_role``.
_ANY, _SEC, _PRI = 0, 1, 2


def _slot_classes(ring: HashRing, is_active: Optional[Predicate],
                  is_primary: Optional[Predicate],
                  chain: ChainMode) -> _SlotClasses:
    slist = ring._server_list
    active = np.ones(len(slist), dtype=bool)
    if is_active is not None:
        active[:] = [is_active(s) for s in slist]
    primary = np.zeros(len(slist), dtype=bool)
    if is_primary is not None:
        primary[:] = [is_primary(s) for s in slist]
    rehash_cursor = None
    if is_primary is not None and chain == "rehash":
        rehash_cursor = ring.bulk_successor_slots(bulk_hash(
            [s if isinstance(s, (str, bytes, int)) else repr(s)
             for s in slist]))
    owners = ring._owners
    slot_active = active[owners]
    slot_primary = primary[owners]
    return _SlotClasses(
        by_role=(np.flatnonzero(slot_active),
                 np.flatnonzero(slot_active & ~slot_primary),
                 np.flatnonzero(slot_active & slot_primary)),
        inactive=np.flatnonzero(~slot_active),
        is_primary=primary,
        n_active=int(np.count_nonzero(active)),
        n_secondary=int(np.count_nonzero(active & ~primary)),
        n_primary=int(np.count_nonzero(active & primary)),
        rehash_cursor=rehash_cursor)


def _next_free(owners: np.ndarray, eligible: np.ndarray, cursor: np.ndarray,
               chosen: List[np.ndarray]) -> np.ndarray:
    """For each row, the first slot of the sorted slot array *eligible*
    at or clockwise of *cursor* whose owner is not among the row's
    *chosen* owners.  The caller guarantees one exists.

    One ``searchsorted`` lands every row on its next eligible slot;
    rows that landed on a server they already hold step to the next
    eligible slot, and only those rows are probed again.
    """
    size = eligible.size
    at = eligible.searchsorted(cursor)
    at[at == size] = 0
    match = eligible[at]
    if not chosen:
        return match
    again = np.arange(match.size)    # rows not yet known to be free
    while True:
        own = owners[match[again]]
        clash = chosen[0][again] == own
        for col in chosen[1:]:
            clash |= col[again] == own
        again = again[clash]
        if not again.size:
            return match
        step = at[again] + 1
        step[step == size] = 0
        at[again] = step
        match[again] = eligible[step]


def _place_all_slots(owners: np.ndarray, r: int, cls: _SlotClasses,
                     algorithm1: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 (or the original-CH rule) for every slot at once, as
    ``(V, r)`` server indices and ``(V,)`` flag bits — row for row what
    ``place_*_from_slot`` returns, which
    ``tests/core/test_kernel_batch.py`` holds it to.  The caller has
    checked that r servers are active.

    Replica by replica, every row searches clockwise from its cursor in
    the slot class of its role constraint.  A constraint no server can
    meet is known from the class's server count, not by walking the
    circle: the row is marked degraded and searches without the
    constraint (§III-B).  An inactive server was skipped when the next
    inactive slot is nearer the cursor than the match is — or, for the
    fruitless constrained search, when the ring has any inactive slot
    at all.
    """
    nslots = owners.size
    inactive = cls.inactive
    rehash = cls.rehash_cursor
    flags = np.zeros(nslots, dtype=np.uint8)
    held_primaries = np.zeros(nslots, dtype=np.intp)
    chosen: List[np.ndarray] = []
    cursor = np.arange(nslots)
    for i in range(r):
        role = np.full(nslots, _ANY, dtype=np.int8)
        if algorithm1 and (i > 0 or r == 1):
            # Lines 3-15: secondaries only once a primary is held; the
            # last replica must be the primary if none is.
            has_primary = held_primaries > 0
            role[has_primary] = _SEC
            unmet = has_primary & (i - held_primaries >= cls.n_secondary)
            if i == r - 1:
                role[~has_primary] = _PRI
                if not cls.n_primary:
                    unmet |= ~has_primary
            role[unmet] = _ANY
            flags[unmet] |= (_DEGRADED | _SKIPPED if inactive.size
                             else _DEGRADED)
        match = np.empty(nslots, dtype=np.intp)
        for code, eligible in enumerate(cls.by_role):
            rows = np.flatnonzero(role == code)
            if rows.size == nslots:
                match = _next_free(owners, eligible, cursor, chosen)
            elif rows.size:
                match[rows] = _next_free(owners, eligible, cursor[rows],
                                         [col[rows] for col in chosen])
        if inactive.size:
            reach = match - cursor
            reach[reach < 0] += nslots
            at = inactive.searchsorted(cursor)
            at[at == inactive.size] = 0
            gap = inactive[at] - cursor
            gap[gap < 0] += nslots
            flags[gap < reach] |= _SKIPPED
        own = owners[match]
        chosen.append(own)
        held_primaries += cls.is_primary[own]
        if rehash is not None:
            cursor = rehash[own]
        else:
            cursor = match + 1
            cursor[cursor == nslots] = 0
    return np.stack(chosen, axis=1), flags


class SlotPlacementTable:
    """Every slot's placement for one (active set, chain, r).

    The constructor computes all V rows in one array pass
    (:func:`_place_all_slots`) and the table never changes afterwards.
    Only the array rows are written; the frozen
    :class:`PlacementResult` of a slot is built if and when a scalar
    lookup asks for it.  A membership with fewer than r active servers
    places nothing, whatever the slot: the table keeps the one
    ``LookupError`` message instead of rows, so the failure is as
    cheap — and as deterministic — as a success.

    *is_primary* ``None`` selects the original-CH rule; otherwise
    Algorithm 1 with *chain*.
    """

    def __init__(self, ring: HashRing, r: int,
                 is_active: Optional[Predicate],
                 is_primary: Optional[Predicate] = None,
                 chain: ChainMode = "walk") -> None:
        if r < 1:
            raise ValueError("replica count must be >= 1")
        self._r = r
        ids = np.asarray(ring._server_list)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            ids = np.empty(len(ring._server_list), dtype=object)
            ids[:] = ring._server_list
        algorithm1 = is_primary is not None
        cls = _slot_classes(ring, is_active, is_primary, chain)
        #: Why no slot of this membership is placeable (``None``: every
        #: slot is, and ``_servers`` / ``_flags`` hold the V rows).
        self._error: Optional[str] = None
        if cls.n_active < r:
            # The unconstrained search runs dry at replica n_active+1,
            # whatever the slot: every row fails the same way.
            self._error = (
                "no active server" if algorithm1 and not cls.n_active
                else f"only {cls.n_active} of {r} replicas placeable")
            self._servers = np.empty((0, r), dtype=ids.dtype)
            self._flags = np.empty(0, dtype=np.uint8)
        else:
            # Rows hold server ids, not server indices: every read of
            # the table is then one gather.
            index, self._flags = _place_all_slots(
                ring._owners, r, cls, algorithm1)
            self._servers = ids[index]
        #: Per-slot PlacementResult, built on the first scalar ask.
        self._results: List[Optional[PlacementResult]] = \
            [None] * ring._positions.size

    @property
    def num_slots(self) -> int:
        return len(self._results)

    def lookup(self, slot: int) -> PlacementResult:
        """Placement of one slot (raising ``LookupError`` exactly where
        the reference walk would)."""
        res = self._results[slot]
        if res is None:
            if self._error is not None:
                raise LookupError(self._error)
            flags = self._flags[slot]
            res = self._results[slot] = PlacementResult(
                tuple(self._servers[slot].tolist()),
                degraded=bool(flags & _DEGRADED),
                skipped_inactive=bool(flags & _SKIPPED))
        return res

    def rows(self, slots: List[int]) -> List[list]:
        """Server rows of *slots* as plain lists, in one gather and
        with no :class:`PlacementResult` built — what a batch of writes
        lands on.  Raises ``LookupError`` where :meth:`lookup` would."""
        if self._error is not None:
            raise LookupError(self._error)
        if len(slots) == 1:
            # A single write: one row view costs less than take's
            # list-to-array conversion.
            return [self._servers[slots[0]].tolist()]
        return self._servers.take(slots, axis=0).tolist()

    def gather(self, slots: np.ndarray) -> BulkPlacement:
        """Vectorised placement of a slot array."""
        if self._error is not None:
            dtype = self._servers.dtype
            return BulkPlacement(
                servers=np.full((slots.size, self._r),
                                -1 if dtype.kind in "iu" else None,
                                dtype=dtype),
                degraded=np.zeros(slots.size, dtype=bool),
                skipped_inactive=np.zeros(slots.size, dtype=bool),
                ok=np.zeros(slots.size, dtype=bool),
                reasons=dict.fromkeys(range(slots.size), self._error))
        flags = self._flags[slots]
        return BulkPlacement(
            servers=self._servers[slots],
            degraded=(flags & _DEGRADED) != 0,
            skipped_inactive=(flags & _SKIPPED) != 0,
            ok=np.ones(slots.size, dtype=bool))


#: Slot tables a kernel keeps (least recently used goes first).
MAX_TABLES = 16


class PlacementKernel:
    """Slot tables for every membership of one ring and one role
    assignment, plus an oid→slot cache for the scalar hot path.

    Tables are keyed by the caller's membership key — the frozenset of
    active servers: a version's active set for the elastic facade, the
    member set for the original-CH baseline — and kept in an LRU of
    :data:`MAX_TABLES`; trace replays touch hundreds of versions but
    far fewer active sets, and only the recent few stay hot.  The ring
    never changes, so neither does a table or a cached slot: a new
    weighting or role assignment is a new ring and a new kernel.
    """

    def __init__(
        self,
        ring: HashRing,
        replicas: int,
        placement_mode: str = "primary",
        chain: ChainMode = "walk",
        is_primary: Optional[Predicate] = None,
    ) -> None:
        if placement_mode not in ("primary", "original"):
            raise ValueError(f"unknown placement_mode: {placement_mode!r}")
        if placement_mode == "primary" and is_primary is None:
            raise ValueError("primary placement needs an is_primary oracle")
        self._ring = ring
        self._replicas = replicas
        self._mode = placement_mode
        self._chain: ChainMode = chain
        self._is_primary = is_primary
        self._max_tables = MAX_TABLES
        self._tables: "OrderedDict[Hashable, SlotPlacementTable]" = \
            OrderedDict()
        self._slot_cache: Dict[Hashable, int] = {}
        # One-entry fast path over the LRU: repeated locates against a
        # settled membership skip the OrderedDict bookkeeping entirely.
        self._last_key: Hashable = _NO_KEY
        self._last_tbl: Optional[SlotPlacementTable] = None

    @property
    def cached_tables(self) -> Tuple[Hashable, ...]:
        """Membership keys currently memoized (oldest first) — for
        tests and capacity introspection."""
        return tuple(self._tables)

    # ------------------------------------------------------------------
    def table(self, key: Hashable,
              is_active: Optional[Predicate]) -> SlotPlacementTable:
        """The slot table for one membership *key*, built whole the
        first time the key is asked for.

        *is_active* must be the pure membership predicate belonging to
        *key*; it is evaluated once per server at table creation, which
        is sound because a key names one membership for good.

        The fast path compares keys by identity: frozenset ``==`` is an
        O(n) subset check even against itself.  Callers hold one object
        per membership (``VersionHistory`` shares equal active sets); an
        equal key that is another object takes the LRU lookup.
        """
        if key is self._last_key:
            # Already the most-recent LRU entry: no move_to_end needed.
            return self._last_tbl  # type: ignore[return-value]
        tbl = self._tables.get(key)
        if tbl is None:
            tbl = SlotPlacementTable(
                self._ring, self._replicas, is_active,
                self._is_primary if self._mode == "primary" else None,
                self._chain)
            self._tables[key] = tbl
            if len(self._tables) > self._max_tables:
                self._tables.popitem(last=False)
        else:
            self._tables.move_to_end(key)
        self._last_key, self._last_tbl = key, tbl
        return tbl

    # ------------------------------------------------------------------
    def slot_of(self, oid: Hashable) -> int:
        """Successor slot of *oid*, memoized for the kernel's lifetime.

        The cache is what turns a repeated scalar ``locate`` into two
        lookups: oid→slot here, slot→result in the table.
        """
        slot = self._slot_cache.get(oid)
        if slot is None:
            ring = self._ring
            slot = ring.successor_slot(hash64(oid) if type(oid) is int
                                       else ring.key_position(oid))
            if len(self._slot_cache) >= _SLOT_CACHE_MAX:
                self._slot_cache.clear()
            self._slot_cache[oid] = slot
        return slot

    def rows(self, key: Hashable, is_active: Optional[Predicate],
             oids: Sequence[Hashable]) -> List[list]:
        """Server rows of *oids* under membership *key*: each oid's
        memoised slot (read in C while every oid has one), then one
        gather of the key's table.  Raises the table's ``LookupError``
        naming the first oid (fewer than r servers to place on fails
        every oid alike)."""
        slots = list(map(self._slot_cache.get, oids))
        if None in slots:
            slots = [self.slot_of(oid) for oid in oids]
        try:
            return self.table(key, is_active).rows(slots)
        except LookupError as exc:
            raise LookupError(f"{exc} (oid {oids[0]!r})") from None

    def prehash(self, oids: Union[range, np.ndarray]) -> None:
        """Fill the oid→slot memo for *oids* (a ``range`` or an integer
        array) before anything asks: one ``bulk_hash`` and one
        ``searchsorted`` instead of a hash and a bisect per oid.  A
        slot is the ring's alone, so an entry holds under every
        membership; the memo's size cap holds as in :meth:`slot_of`."""
        keys = oids[:_SLOT_CACHE_MAX]
        if not len(keys):
            return
        if len(self._slot_cache) + len(keys) > _SLOT_CACHE_MAX:
            self._slot_cache.clear()
        slots = self._ring.bulk_successor_slots(bulk_hash(keys))
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        self._slot_cache.update(zip(keys, slots.tolist()))
