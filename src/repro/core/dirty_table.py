"""Dirty-data tracking (§III-E-2, Figure 6).

An object is *dirty* when it was written while the cluster was not at
full power: some replica targets may have been skipped (offloaded), so
the object may need re-integration when servers come back.  The dirty
table records ``(OID, version)`` pairs — the version is the epoch the
object was **last written** in — and is consumed FIFO by Algorithm 2,
"version ascending and OID ascending if the version is the same".

As in the paper's implementation (§IV), the table lives in a Redis-like
key-value store as LIST values: entries enter with RPUSH, are peeked
with LRANGE during non-full-power re-integration, and are removed with
LPOP/LREM once re-integrated into a full-power version.  Each object's
entries live under a per-OID list key (``oid:<oid>``) — on a
distributed backend that routes all of them to one replica set by
hashing the OID (§III-E-2); every per-OID list stays version-sorted
automatically (versions only grow) and the global order is recovered
with a sort-merge at fetch time, so the order the backend lists its
keys in is never observable.

The table does not care what holds it (the tests run one generated op
sequence against all of them): a plain
:class:`~repro.kvstore.store.KVStore` by default — no fault-free run
reads which server held an entry, so none pays to route it — or a
:class:`~repro.kvstore.replicated.ReplicatedKVStore`, which is the
paper's "distributed key-value store across the storage servers": the
chaos harness runs the table on one (R = 3) so crashed servers lose
nothing, and a view change there moves only the remapped lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Set

from repro.kvstore.store import KVStore
from repro.obs.runtime import OBS

__all__ = ["DirtyEntry", "DirtyTable"]

#: Per-OID list keys: ``oid:<oid>`` routes all of one object's entries
#: to a single replica set.
_KEY_PREFIX = "oid:"


@dataclass(frozen=True, order=True)
class DirtyEntry:
    """One dirty-table row.  Ordered by (version, oid) — exactly the
    order ``fetch_dirty_entry`` consumes (§III-E-3)."""

    version: int
    oid: int

    def __repr__(self) -> str:  # matches Figure 6's (OID, Version) rows
        return f"DirtyEntry(oid={self.oid}, version={self.version})"


#: :class:`DirtyEntry`'s order as a sort key.
_FETCH_ORDER = attrgetter("version", "oid")


class DirtyTable:
    """The distributed dirty table.

    Parameters
    ----------
    kv:
        Backing store — anything with :class:`KVStore`'s command
        surface; a private :class:`KVStore` when omitted.

    Re-inserting an ``(oid, version)`` pair that is already present is
    a no-op — re-writing an object in the same epoch does not need a
    second re-integration pass.
    """

    def __init__(self, kv: Optional[KVStore] = None) -> None:
        self._kv = kv if kv is not None else KVStore()
        #: ``oid -> versions present``: every membership question is a
        #: dict probe, never a scan or a backend call.
        self._index: Dict[int, Set[int]] = {}
        self._last_version: int = 0
        self._count: int = 0  # O(1) __len__; mirrors the list lengths
        # Pre-bound: insert is on the per-write hot path.
        self._insert_counter = OBS.metrics.counter("dirty.inserts")

    # ------------------------------------------------------------------
    def _key(self, oid: int) -> str:
        """The per-OID list key; routing by OID keeps all of one
        object's entries together."""
        return f"{_KEY_PREFIX}{oid}"

    def _oid_keys(self) -> Iterator[str]:
        """Every per-OID list key, via the backend's whole-keyspace
        fan-out."""
        for key in self._kv.keys():
            if key.startswith(_KEY_PREFIX):
                yield key

    # ------------------------------------------------------------------
    def insert(self, oid: int, version: int) -> bool:
        """Record that *oid* was written (dirty) in *version*.

        Returns whether a new entry was actually appended.  Versions
        must be non-decreasing across inserts — the logging component
        tags writes with the *current* version, which only grows — and
        that monotonicity is what keeps every per-OID list sorted.  A
        batch of writes calls it per object, between the object's
        header stamp and its replicas, so a raise partway leaves what a
        loop of single writes leaves.
        """
        if version < self._last_version:
            # An out-of-order version would silently break fetch order.
            raise ValueError(
                f"dirty insert version went backwards: {version} < "
                f"{self._last_version}")
        versions = self._index.get(oid)
        if versions is not None and version in versions:
            return False
        self._kv.rpush(self._key(oid),
                       DirtyEntry(version=version, oid=oid))
        self._count += 1
        if versions is None:
            self._index[oid] = {version}
        else:
            versions.add(version)
        self._last_version = version    # not behind it: checked above
        self._insert_counter.inc()
        if OBS.bus.active:
            OBS.bus.emit("dirty.insert", oid=oid, version=version)
        return True

    def contains(self, oid: int, version: int) -> bool:
        return version in self._index.get(oid, ())

    def contains_oid(self, oid: int) -> bool:
        return oid in self._index

    def _forget(self, entry: DirtyEntry) -> None:
        versions = self._index.get(entry.oid)
        if versions is not None:
            versions.discard(entry.version)
            if not versions:
                del self._index[entry.oid]

    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        """Algorithm 2's ``isempty_dirty_table()``."""
        return len(self) == 0

    # ------------------------------------------------------------------
    def entries(self) -> List[DirtyEntry]:
        """Snapshot of all entries in global fetch order
        (version ascending, OID ascending within a version).

        This is the LRANGE path: non-destructive, used while the
        current version is not full power."""
        out: List[DirtyEntry] = []
        for key in self._oid_keys():
            out.extend(self._kv.lrange(key, 0, -1))
        out.sort(key=_FETCH_ORDER)     # DirtyEntry.__lt__ is far slower
        OBS.metrics.inc("dirty.fetches")
        OBS.metrics.inc("dirty.fetched_entries", len(out))
        return out

    def __iter__(self) -> Iterator[DirtyEntry]:
        return iter(self.entries())

    # ------------------------------------------------------------------
    def remove(self, entry: DirtyEntry) -> bool:
        """Remove one specific entry (the LPOP/LREM path, taken when
        the entry has been re-integrated into a full-power version)."""
        key = self._key(entry.oid)
        if self._kv.lindex(key, 0) == entry:
            self._kv.lpop(key)
            removed = 1
        else:
            removed = self._kv.lrem(key, 1, entry)
        if removed:
            self._count -= removed
            self._forget(entry)
            OBS.metrics.inc("dirty.removes")
            if OBS.bus.active:
                OBS.bus.emit("dirty.remove", oid=entry.oid,
                             version=entry.version)
        return bool(removed)

    def remove_oid(self, oid: int) -> int:
        """Remove every entry for *oid* (used when an object is deleted
        or when a newer write supersedes all older dirty entries).
        Returns the number of entries removed."""
        key = self._key(oid)
        victims = self._kv.lrange(key, 0, -1)
        self._kv.delete(key)
        self._count -= len(victims)
        for e in victims:
            self._forget(e)
            OBS.metrics.inc("dirty.removes")
            if OBS.bus.active:
                OBS.bus.emit("dirty.remove", oid=e.oid,
                             version=e.version)
        return len(victims)

    def clear(self) -> None:
        for key in list(self._oid_keys()):
            self._kv.delete(key)
        self._index.clear()
        self._count = 0
