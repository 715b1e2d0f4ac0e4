"""A simulated storage server.

Models exactly what the evaluation depends on: a power state, a
capacity limit (§III-D), and the disk bandwidth consumed by the
fair-share IO model in :mod:`repro.simulation`.  What a server
holds is not kept here: the cluster's
:class:`~repro.cluster.objects.ObjectTable` records every replica once,
and checks each landing against the server's power state and capacity.
"""

from __future__ import annotations

import enum
from typing import Optional

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
    """

    def __init__(
        self,
        rank: int,
        capacity_bytes: Optional[int] = None,
        disk_bandwidth: float = 100e6,   # ~HDD-class, matches testbed scale
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.capacity_bytes = capacity_bytes
        self.disk_bandwidth = float(disk_bandwidth)
        self.state = PowerState.ON

    @property
    def is_on(self) -> bool:
        return self.state is _ON

    def power_off(self) -> None:
        """Lowest power state; replicas stay on disk."""
        self.state = PowerState.OFF

    def power_on(self) -> None:
        self.state = PowerState.ON

    def __repr__(self) -> str:
        return f"StorageServer(rank={self.rank}, {self.state.value})"
