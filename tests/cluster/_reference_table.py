"""The bookkeeping the object table replaced, kept as its oracle.

Before the table, a cluster recorded where each object lives three
times: a catalog of headers, a replica map per server (``oid -> size``,
in insertion order) and a shared ``oid -> ascending holders`` index
that the servers kept in step from ``store_replica`` /
``drop_replica``.  :class:`ReferenceTable` is those bodies, kept
verbatim modulo ``self``, behind the interface of
:class:`~repro.cluster.objects.ObjectTable`, so a cluster whose
``objects`` is swapped for one runs the old bookkeeping end to end.  A
rank's landing order is its replica map's insertion order.

:func:`observe` is everything either table answers;
:func:`reference_cluster` builds a cluster on the reference.
"""

from repro.cluster.objects import ObjectTable
from repro.cluster.server import CapacityExceeded, PowerState


class ReferenceTable:
    """The catalog, per-server replica maps and holder index."""

    def __init__(self, servers):
        self._servers = servers
        self._catalog = {}                            # oid -> header size
        self._replicas = {rank: {} for rank in servers}  # oid -> size
        self._used = dict.fromkeys(servers, 0)
        self._holders = {}

    # -- ObjectCatalog --------------------------------------------------
    def __len__(self):
        return len(self._catalog)

    def __contains__(self, oid):
        return oid in self._catalog

    def __iter__(self):
        return iter(self._catalog)

    def size(self, oid):
        return self._catalog[oid]

    def items(self):
        return self._catalog.items()

    # -- StorageServer.store_replica / drop_replica ---------------------
    def _store_replica(self, rank, oid, size):
        srv = self._servers[rank]
        if srv.state is not PowerState.ON:
            raise RuntimeError(f"write to powered-off server {rank}")
        old = self._replicas[rank].get(oid)
        new_used = self._used[rank] - (old or 0) + size
        if srv.capacity_bytes is not None and new_used > srv.capacity_bytes:
            raise CapacityExceeded(
                f"server {rank}: {new_used} > {srv.capacity_bytes}")
        self._replicas[rank][oid] = size
        self._used[rank] = new_used
        if old is None:
            held = self._holders.get(oid)
            self._holders[oid] = ((rank,) if held is None else
                                  tuple(sorted(held + (rank,))))

    def drop(self, oid, rank):
        size = self._replicas[rank].pop(oid, None)
        if size is None:
            return 0
        self._used[rank] -= size
        left = tuple(r for r in self._holders[oid] if r != rank)
        if left:
            self._holders[oid] = left
        else:
            del self._holders[oid]
        return size

    # -- the cluster's _store and _Landing ------------------------------
    def store(self, oid, size, ranks):
        for rank in ranks:
            self._store_replica(rank, oid, size)

    def write(self, oid, size, ranks):
        self._catalog[oid] = size        # ObjectCatalog.create_or_touch
        self.store(oid, size, ranks)
        for rank in self._holders.get(oid, ()):
            if rank not in ranks:
                self.drop(oid, rank)

    # -- what the cluster read from them --------------------------------
    def holders(self, oid):
        return self._holders.get(oid, ())

    def holder_counts(self):
        return (len(self._holders.get(oid, ())) for oid in self._catalog)

    def replicas_on(self, rank):
        return list(self._replicas[rank].items())

    def bytes_per_rank(self):
        return dict(self._used)

    def replicas_per_rank(self):
        return {rank: len(held) for rank, held in self._replicas.items()}


def reference_cluster(flavour, *args, **kwargs):
    """A *flavour* cluster whose object table is the reference."""
    cluster = flavour(*args, **kwargs)
    assert isinstance(cluster.objects, ObjectTable) and not cluster.objects
    cluster.objects = ReferenceTable(cluster.servers)
    return cluster


def observe(cluster):
    """Everything the table answers, in a form both tables share."""
    objects = cluster.objects
    out = {
        "headers": list(objects.items()),
        "stored": {oid: cluster.stored_locations(oid) for oid in objects},
        "landing": {rank: objects.replicas_on(rank)
                    for rank in cluster.servers},
        "bytes": cluster.bytes_per_rank(),
        "counts": cluster.replicas_per_rank(),
        "under": cluster.verify_replication(),
        "under_active": cluster.verify_replication(require_active=True),
    }
    if hasattr(cluster, "replication_audit"):
        out["audit"] = cluster.replication_audit()
    return out
