"""The object table: what each object is and where its replicas live.

Sheepdog is an object-based store (§IV): a virtual disk is chunked into
fixed-size objects (4 MB in the paper's evaluation), each identified by
a 64-bit OID.  Every object header carries the membership version it
was last written in and a dirty bit (§III-E-2); the placement layer
keeps both (``ElasticConsistentHash.location_version`` /
``last_written`` and the dirty table, ``ech.is_dirty``), so this table
does not repeat them.

The table keeps one record per oid, in first-write order: the header
size and the object's holders.  Each holder carries its replica's size
and a *landing number* — a table-wide counter taken when that rank
first gets the replica, kept when the replica is overwritten, dropped
with it.  A rank's replicas are enumerated in landing order: the order
the crash rule re-replicates them and the baseline's departure
re-homes them.  Per-rank used bytes and replica counts are maintained
with every change.

Powering a server off does not touch the table: "data on the servers
that are turned down still exist" (§II-C), which is why selective
re-integration only moves data written while the server was down.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Mapping, Sequence,
                    Tuple)

from repro.cluster.server import _ON, CapacityExceeded, StorageServer

__all__ = ["DEFAULT_OBJECT_SIZE", "ObjectTable"]

DEFAULT_OBJECT_SIZE = 4 * 1024 * 1024  # 4 MB, §V-A


class ObjectTable:
    """Every object's header size and holders, over a fixed server map.

    Parameters
    ----------
    servers:
        ``rank -> StorageServer``; a replica lands on a rank only while
        its server is on and has room (``capacity_bytes``).
    """

    def __init__(self, servers: Mapping[int, StorageServer]) -> None:
        self._servers = servers
        #: ``oid -> header size``, in first-write order.
        self._size: Dict[int, int] = {}
        #: ``oid -> (rank, size, landing, rank, size, landing, ...)``:
        #: the object's holders in landing order, each with its replica
        #: size and landing number.  A flat tuple of numbers is the
        #: smallest record Python has, and the cyclic garbage collector
        #: stops tracking it.
        self._held: Dict[int, Tuple[int, ...]] = {}
        self._used = dict.fromkeys(servers, 0)
        self._count = dict.fromkeys(servers, 0)
        self._landings = 0

    def __len__(self) -> int:
        return len(self._size)

    def __contains__(self, oid: int) -> bool:
        return oid in self._size

    def __iter__(self) -> Iterator[int]:
        """Oids in first-write order."""
        return iter(self._size)

    def size(self, oid: int) -> int:
        """Header size of *oid* (``KeyError`` if never written)."""
        return self._size[oid]

    def items(self) -> Iterable[Tuple[int, int]]:
        """``(oid, header size)`` in first-write order."""
        return self._size.items()

    def holders(self, oid: int) -> Tuple[int, ...]:
        """Ranks holding a replica of *oid* (any power state),
        ascending."""
        return tuple(sorted(self._held.get(oid, ())[::3]))

    def holder_counts(self) -> Iterator[int]:
        """How many ranks hold each object, in first-write order."""
        return (len(held) // 3 for held in self._held.values())

    def replicas_on(self, rank: int) -> List[Tuple[int, int]]:
        """``(oid, replica size)`` of every replica on *rank*, in
        landing order.  Scans the table: crashes and departures are
        rare."""
        found = []
        for oid, held in self._held.items():
            at = _find(held, rank)
            if at >= 0:
                found.append((held[at + 2], oid, held[at + 1]))
        return [(oid, size) for _, oid, size in sorted(found)]

    def bytes_per_rank(self) -> Dict[int, int]:
        return dict(self._used)

    def replicas_per_rank(self) -> Dict[int, int]:
        return dict(self._count)

    # ------------------------------------------------------------------
    # the three changes
    # ------------------------------------------------------------------
    def write(self, oid: int, size: int, ranks: Sequence[int]) -> None:
        """A write of *oid*: the header takes *size*, replicas land on
        *ranks* in order, and every other holder's now-stale replica is
        dropped.  A raise partway (an off or full rank) leaves the
        header and the replicas landed before it."""
        self._size[oid] = size
        self.store(oid, size, ranks)
        held = self._held[oid]
        if len(held) > 3 * len(ranks):
            for rank in [r for r in held[::3] if r not in ranks]:
                self.drop(oid, rank)

    def store(self, oid: int, size: int, ranks: Sequence[int]) -> None:
        """Write (or overwrite) *oid*'s replica on each of *ranks*, in
        order; an object first seen here gets a record of header size
        *size*.

        Only legal on a powered-on rank — the placement layer never
        selects an off server, so hitting that guard is a placement
        bug — and within the rank's capacity (:class:`CapacityExceeded`
        names the rank that refused).
        """
        held = self._held.get(oid)
        if held is None:
            held = self._held[oid] = ()
            self._size.setdefault(oid, size)
        used = self._used
        for rank in ranks:
            srv = self._servers[rank]
            if srv.state is not _ON:
                raise RuntimeError(f"write to powered-off server {rank}")
            at = _find(held, rank)
            new_used = used[rank] - (held[at + 1] if at >= 0 else 0) + size
            cap = srv.capacity_bytes
            if cap is not None and new_used > cap:
                raise CapacityExceeded(f"server {rank}: {new_used} > {cap}")
            if at < 0:
                self._landings += 1
                held += (rank, size, self._landings)
                self._count[rank] += 1
            else:
                held = held[:at + 1] + (size,) + held[at + 2:]
            self._held[oid] = held
            used[rank] = new_used

    def drop(self, oid: int, rank: int) -> int:
        """Delete *oid*'s replica on *rank*; returns its size (0 if the
        rank holds none).  Allowed while the rank is off — dropping is
        bookkeeping for data the layout no longer maps there, reclaimed
        lazily when the server next powers on."""
        held = self._held.get(oid, ())
        at = _find(held, rank)
        if at < 0:
            return 0
        self._held[oid] = held[:at] + held[at + 3:]
        size = held[at + 1]
        self._used[rank] -= size
        self._count[rank] -= 1
        return size


def _find(held: Tuple[int, ...], rank: int) -> int:
    """Where *rank*'s entry starts in the holder record *held*; -1 if
    *rank* holds no replica."""
    ranks = held[::3]
    return 3 * ranks.index(rank) if rank in ranks else -1
