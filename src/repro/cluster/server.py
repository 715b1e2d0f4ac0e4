"""A simulated storage server.

Models exactly what the evaluation depends on: a power state, a replica
map (which objects this server physically holds), a capacity limit
(§III-D), and disk/network bandwidth capacities consumed by the
fair-share IO model in :mod:`repro.simulation`.

The elastic design's key property lives here: powering a server *off*
does **not** clear its replica map.  "Data on the servers that are
turned down still exist.  When they are turned back on, it does not
need to migrate these data back" (§II-C) — which is why selective
re-integration only moves data written *while* the server was down.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["PowerState", "StorageServer", "CapacityExceeded"]


class PowerState(enum.Enum):
    ON = "on"
    OFF = "off"


#: Bound once: an enum member lookup costs more than the identity test
#: every replica write makes against it.
_ON = PowerState.ON


class CapacityExceeded(RuntimeError):
    """A replica write would overflow the server's capacity."""


class StorageServer:
    """One storage server.

    Parameters
    ----------
    rank:
        Position in the expansion chain (1-based; 1..p are primaries).
    capacity_bytes:
        Usable capacity; ``None`` disables capacity enforcement (the
        paper's testbed likewise never approached capacity, §V-A).
    disk_bandwidth:
        Sustained disk throughput in bytes/second (shared between
        foreground IO, recovery and migration by the simulator).
    network_bandwidth:
        NIC throughput in bytes/second.
    holder_index:
        The owning cluster's ``oid -> ascending ranks holding a
        replica`` map.  :meth:`store_replica` and :meth:`drop_replica`
        — the only two places a replica map changes — keep this
        server's rank in it, so the cluster answers "who holds *oid*"
        without asking every server.  A stand-alone server keeps a
        private one.
    """

    def __init__(
        self,
        rank: int,
        capacity_bytes: Optional[int] = None,
        disk_bandwidth: float = 100e6,   # ~HDD-class, matches testbed scale
        network_bandwidth: float = 1.25e9,  # 10 GbE
        holder_index: Optional[Dict[int, Tuple[int, ...]]] = None,
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.capacity_bytes = capacity_bytes
        self.disk_bandwidth = float(disk_bandwidth)
        self.network_bandwidth = float(network_bandwidth)
        self.state = PowerState.ON
        self._replicas: Dict[int, int] = {}  # oid -> size
        self._used = 0
        self._holders: Dict[int, Tuple[int, ...]] = (
            holder_index if holder_index is not None else {})

    # ------------------------------------------------------------------
    # power
    # ------------------------------------------------------------------
    @property
    def is_on(self) -> bool:
        return self.state is _ON

    def power_off(self) -> None:
        """Lowest power state; replicas stay on disk."""
        self.state = PowerState.OFF

    def power_on(self) -> None:
        self.state = PowerState.ON

    # ------------------------------------------------------------------
    # replica map
    # ------------------------------------------------------------------
    def store_replica(self, oid: int, size: int) -> None:
        """Write (or overwrite) one replica.

        Only legal while powered on — the placement layer never selects
        an off server, so hitting this guard is a placement bug.
        """
        if self.state is not _ON:
            raise RuntimeError(f"write to powered-off server {self.rank}")
        old = self._replicas.get(oid)
        new_used = self._used - (old or 0) + size
        if self.capacity_bytes is not None and new_used > self.capacity_bytes:
            raise CapacityExceeded(
                f"server {self.rank}: {new_used} > {self.capacity_bytes}")
        self._replicas[oid] = size
        self._used = new_used
        if old is None:
            held = self._holders.get(oid)
            self._holders[oid] = ((self.rank,) if held is None else
                                  tuple(sorted(held + (self.rank,))))

    def drop_replica(self, oid: int) -> int:
        """Delete one replica (surplus after migration); returns its
        size.  Allowed while off — dropping is bookkeeping for data the
        new layout no longer maps here, reclaimed lazily when the
        server next powers on."""
        size = self._replicas.pop(oid, None)
        if size is None:
            return 0
        self._used -= size
        left = tuple(r for r in self._holders[oid] if r != self.rank)
        if left:
            self._holders[oid] = left
        else:
            del self._holders[oid]
        return size

    def has_replica(self, oid: int) -> bool:
        return oid in self._replicas

    def replica_size(self, oid: int) -> int:
        return self._replicas.get(oid, 0)

    def replicas(self) -> Iterator[int]:
        return iter(self._replicas)

    @property
    def num_replicas(self) -> int:
        return len(self._replicas)

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> Optional[int]:
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes - self._used

    def utilisation(self) -> Optional[float]:
        if self.capacity_bytes is None:
            return None
        return self._used / self.capacity_bytes

    def __repr__(self) -> str:
        return (f"StorageServer(rank={self.rank}, {self.state.value}, "
                f"replicas={self.num_replicas}, used={self._used})")
