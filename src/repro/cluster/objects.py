"""Data objects and the object catalog.

Sheepdog is an object-based store (§IV): a virtual disk is chunked into
fixed-size objects (4 MB in the paper's evaluation), each identified by
a 64-bit OID.  Every object header carries the membership version it
was last written in and a dirty bit (§III-E-2) — that pair is what lets
re-integration find the newest replicas and skip stale dirty entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

__all__ = ["DEFAULT_OBJECT_SIZE", "DataObject", "ObjectCatalog"]

DEFAULT_OBJECT_SIZE = 4 * 1024 * 1024  # 4 MB, §V-A


@dataclass
class DataObject:
    """One stored object: identity plus the §III-E-2 header fields.

    Attributes
    ----------
    oid:
        Universal object identifier.
    size:
        Payload size in bytes.
    version:
        Membership version of the last write (header "Version" in
        Figure 6).
    dirty:
        Header dirty bit: True until the object has been re-integrated
        into a full-power layout.
    """

    oid: int
    size: int = DEFAULT_OBJECT_SIZE
    version: int = 1
    dirty: bool = False

    def touch(self, version: int, dirty: bool) -> None:
        """Update the header on a (re-)write."""
        if version < self.version:
            raise ValueError(
                f"object {self.oid} written in older version {version} "
                f"(header at {self.version})")
        self.version = version
        self.dirty = dirty


class ObjectCatalog:
    """All objects known to a cluster, with aggregate accounting.

    The catalog is pure metadata (what exists, how big, which version);
    where replicas *physically* live is the servers' replica maps —
    keeping the two separate mirrors the real system, where object
    headers travel with the data and no central location map exists.
    (The simulator does keep a holder index derived from those maps,
    ``_ClusterBase.stored_locations``, purely as an accelerator for
    what the real system learns by asking its servers; the *modelled*
    system still has none.)
    """

    def __init__(self) -> None:
        self._objects: Dict[int, DataObject] = {}
        self._total_bytes = 0

    def create_or_touch(self, oid: int, size: int, version: int,
                        dirty: bool) -> DataObject:
        """Record a write: create the object or bump its header."""
        obj = self._objects.get(oid)
        if obj is None:
            obj = DataObject(oid=oid, size=size, version=version, dirty=dirty)
            self._objects[oid] = obj
            self._total_bytes += size
        else:
            if size != obj.size:
                self._total_bytes += size - obj.size
                obj.size = size
            obj.touch(version, dirty)
        return obj

    def get(self, oid: int) -> Optional[DataObject]:
        return self._objects.get(oid)

    def __getitem__(self, oid: int) -> DataObject:
        return self._objects[oid]

    def __contains__(self, oid: int) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[DataObject]:
        return iter(self._objects.values())

    def remove(self, oid: int) -> DataObject:
        obj = self._objects.pop(oid)
        self._total_bytes -= obj.size
        return obj

    @property
    def total_bytes(self) -> int:
        """Total unique bytes (one copy per object, replication
        excluded)."""
        return self._total_bytes

    def dirty_oids(self) -> list[int]:
        return [o.oid for o in self._objects.values() if o.dirty]

    def size_of(self, oid: int) -> int:
        """Object-size oracle in the shape
        :class:`repro.core.reintegration.ReintegrationEngine` expects."""
        return self._objects[oid].size
