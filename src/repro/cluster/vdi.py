"""Virtual disk images (VDIs) — Sheepdog's data model.

Sheepdog exposes block devices to VMs: a VDI is a sparse virtual disk
chunked into fixed-size data objects (4 MB), each addressed by an OID
derived from the VDI id and the chunk index.  The paper's testbed
(§V-A) partitioned a 100 GB VDI out of the store and attached it to a
KVM-QEMU guest; Filebench then generated byte-level IO against it.

:class:`VirtualDisk` implements that mapping: byte-range reads and
writes are translated into object writes/reads against an
:class:`~repro.cluster.cluster.ElasticCluster` (or any object with the
same ``write``/``read``/``objects`` surface).  Objects are allocated
lazily — an untouched chunk costs nothing, like a sparse qcow image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.cluster.objects import DEFAULT_OBJECT_SIZE
from repro.hashring.hashing import hash64

__all__ = ["VdiRange", "VirtualDisk"]


@dataclass(frozen=True)
class VdiRange:
    """One contiguous chunk touched by a byte-range operation."""

    oid: int
    chunk_index: int
    offset_in_chunk: int
    length: int


class VirtualDisk:
    """A sparse virtual disk backed by cluster objects.

    Parameters
    ----------
    name:
        VDI name; hashed into the OID namespace so distinct disks
        never collide (Sheepdog reserves the top OID bits for the VDI
        id the same way).
    size_bytes:
        Disk capacity visible to the guest.
    cluster:
        Backing object store (``ElasticCluster`` in practice).
    object_size:
        Chunk size; the paper's deployment uses 4 MB.
    """

    def __init__(self, name: str, size_bytes: int, cluster,
                 object_size: int = DEFAULT_OBJECT_SIZE) -> None:
        if size_bytes <= 0:
            raise ValueError("disk size must be positive")
        if object_size <= 0:
            raise ValueError("object size must be positive")
        self.name = name
        self.size_bytes = int(size_bytes)
        self.cluster = cluster
        self.object_size = int(object_size)
        # 32 bits of VDI id, 32 bits of chunk index — Sheepdog's split.
        self._vdi_id = hash64(f"vdi:{name}") & 0xFFFFFFFF
        self._allocated: Dict[int, int] = {}  # chunk index -> oid

    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        return -(-self.size_bytes // self.object_size)

    @property
    def allocated_chunks(self) -> int:
        return len(self._allocated)

    def oid_for_chunk(self, index: int) -> int:
        """Deterministic OID for chunk *index* (allocated or not)."""
        if not 0 <= index < self.num_chunks:
            raise IndexError(f"chunk {index} out of range")
        return (self._vdi_id << 32) | index

    # ------------------------------------------------------------------
    def ranges(self, offset: int, length: int) -> Iterator[VdiRange]:
        """The chunk ranges a byte operation touches."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be >= 0")
        if offset + length > self.size_bytes:
            raise ValueError(
                f"IO beyond end of disk: {offset + length} > "
                f"{self.size_bytes}")
        pos = offset
        end = offset + length
        while pos < end:
            index = pos // self.object_size
            in_chunk = pos - index * self.object_size
            run = min(end - pos, self.object_size - in_chunk)
            yield VdiRange(oid=self.oid_for_chunk(index),
                           chunk_index=index,
                           offset_in_chunk=in_chunk,
                           length=run)
            pos += run

    # ------------------------------------------------------------------
    def write(self, offset: int, length: int) -> List[VdiRange]:
        """Write *length* bytes at *offset* (payload is simulated).

        Every touched chunk is written through the cluster — a partial
        chunk overwrite still rewrites the 4 MB object, which is how
        object stores behave and why small random writes amplify.
        Returns the ranges touched.
        """
        touched = list(self.ranges(offset, length))
        for r in touched:
            self.cluster.write(r.oid, self.object_size)
            self._allocated[r.chunk_index] = r.oid
        return touched

    def read(self, offset: int, length: int) -> List[Tuple[VdiRange, bool]]:
        """Read *length* bytes at *offset*.

        Returns ``(range, available)`` per chunk; unallocated chunks
        read as holes (available, served as zeros, no cluster IO) —
        sparse-disk semantics.
        """
        out = []
        for r in self.ranges(offset, length):
            if r.chunk_index not in self._allocated:
                out.append((r, True))  # hole: zeros
                continue
            _servers, available = self.cluster.read(r.oid)
            out.append((r, available))
        return out

    def write_amplification(self, offset: int, length: int) -> float:
        """Bytes the store writes per logical byte for this IO
        (chunk rounding x replication)."""
        if length <= 0:
            raise ValueError("length must be positive")
        touched = list(self.ranges(offset, length))
        replicas = getattr(self.cluster, "replicas", 1)
        return len(touched) * self.object_size * replicas / length

    def describe(self) -> str:
        return (f"VirtualDisk({self.name!r}, {self.size_bytes / 1e9:.0f} GB, "
                f"{self.num_chunks} chunks of {self.object_size >> 20} MiB, "
                f"{self.allocated_chunks} allocated)")
