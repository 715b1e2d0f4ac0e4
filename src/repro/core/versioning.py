"""Cluster membership versioning (§III-E-1).

Every resize creates a new *version* (Sheepdog/Ceph call it an epoch):
an immutable snapshot of which servers are on.  Placement is a pure
function of (object id, version), so given the version an object was
last written in, its replica locations are recomputable forever — the
property Algorithm 2's ``locate_ser(OID, Ver)`` relies on.

Servers are identified by their *rank* in the expansion chain (1-based,
§III-B): rank 1..p are primaries and are always on; secondaries power
off from the highest rank downward and power on from the lowest
inactive rank upward, so the active set of any version is always a
prefix ``{1..k}`` of the chain.  (The data structures do not enforce
prefix-ness — :class:`MembershipTable` accepts any active set, and the
tests exercise non-prefix sets — but :class:`repro.core.elastic`
resizes along the chain as the paper prescribes.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from repro.obs.runtime import OBS

__all__ = ["MembershipTable", "VersionHistory"]


@dataclass(frozen=True)
class MembershipTable:
    """The state of every server in one version (Figure 6's
    "Membership Table").

    Attributes
    ----------
    version:
        Monotonically increasing epoch number (first version is 1).
    ranks:
        All server ranks in the cluster, ascending.
    active:
        Ranks that are powered on in this version.
    """

    version: int
    ranks: Tuple[int, ...]
    active: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError("versions start at 1")
        if tuple(sorted(self.ranks)) != self.ranks:
            raise ValueError("ranks must be sorted ascending")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("duplicate ranks")
        unknown = self.active - set(self.ranks)
        if unknown:
            raise ValueError(f"active ranks not in cluster: {sorted(unknown)}")

    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        return len(self.active)

    @property
    def is_full_power(self) -> bool:
        """All servers on — the state in which dirty entries may be
        cleared (Algorithm 2, line 11)."""
        return len(self.active) == len(self.ranks)

    def is_active(self, rank: int) -> bool:
        return rank in self.active

    def active_ranks(self) -> List[int]:
        return sorted(self.active)

    # ------------------------------------------------------------------
    def states(self) -> Dict[int, str]:
        """``{rank: "on"|"off"}`` — the rendering used in Figure 6."""
        return {r: ("on" if r in self.active else "off") for r in self.ranks}


class VersionHistory:
    """Append-only sequence of membership tables.

    The history is the lookup structure behind ``locate_ser(OID, Ver)``:
    it never discards old versions, because a dirty entry may reference
    an arbitrarily old epoch (§III-E-1: "no matter how many versions
    have passed").
    """

    def __init__(self, ranks: Sequence[int]) -> None:
        """Version 1 has every rank of *ranks* active (full power)."""
        ranks_t = tuple(sorted(ranks))
        if not ranks_t:
            raise ValueError("cluster must have at least one server")
        full = frozenset(ranks_t)
        self._tables: List[MembershipTable] = [
            MembershipTable(version=1, ranks=ranks_t, active=full)]
        #: Every active set seen so far, each held once: versions with
        #: equal sets share one frozenset object, so placement can key
        #: its slot tables by set and find a revisited one by identity.
        self._sets: Dict[FrozenSet[int], FrozenSet[int]] = {full: full}

    # ------------------------------------------------------------------
    @property
    def current(self) -> MembershipTable:
        return self._tables[-1]

    @property
    def current_version(self) -> int:
        return self._tables[-1].version

    def get(self, version: int) -> MembershipTable:
        """The membership table of an arbitrary historical version."""
        if not 1 <= version <= len(self._tables):
            raise KeyError(f"unknown version: {version}")
        return self._tables[version - 1]

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[MembershipTable]:
        return iter(self._tables)

    # ------------------------------------------------------------------
    def advance(self, active: Sequence[int]) -> MembershipTable:
        """Create the next version with the given active set.

        A resize that does not change the active set is rejected — a
        version must describe a distinct membership state, and silent
        no-op versions would make Algorithm 2's ``Curr_Ver > Last_Ver``
        restart fire spuriously.
        """
        new_active = frozenset(active)
        cur = self.current
        if new_active == cur.active:
            raise ValueError("active set unchanged; refusing no-op version")
        table = MembershipTable(
            version=cur.version + 1, ranks=cur.ranks,
            active=self._sets.setdefault(new_active, new_active))
        self._tables.append(table)
        OBS.metrics.inc("versions.created")
        if OBS.bus.active:
            OBS.bus.emit("version.advance", version=table.version,
                         active=table.num_active,
                         full_power=table.is_full_power)
        return table

    def num_active(self, version: int) -> int:
        """Algorithm 2's ``num_ser(Ver)`` helper."""
        return self.get(version).num_active
