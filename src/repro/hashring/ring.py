"""The hash ring: sorted virtual-node positions with successor walks.

The ring is the data structure from §II-A of the paper: server ids are
expanded into virtual nodes, each virtual node is hashed to a position
in ``[0, 2**64)``, and a key is served by the first virtual node(s)
found walking clockwise from the key's own hash.

Implementation notes
--------------------
* Positions live in a single sorted ``numpy.uint64`` array with a
  parallel ``intp`` array of owning-server indices, so bulk successor
  lookups are one ``np.searchsorted``; the same positions are kept as
  a list of Python ints, so a scalar successor lookup is one
  ``bisect_left`` (O(log V), exact, no NumPy scalar boxing).
* Membership changes rebuild the arrays (O(V log V)).  Resizes are rare
  relative to placements, and — crucially for the elastic design —
  powering a server *off* does **not** remove it from the ring (§IV:
  "servers never leave the cluster when they are turned down").  Power
  state is a placement-time filter, not a ring mutation, so resizing the
  active set costs nothing here.
* Ties (two vnodes hashing to the same position) are broken
  deterministically by (position, server index, vnode index) so every
  process derives the identical ring.
"""

from __future__ import annotations

from bisect import bisect_left
from numbers import Integral
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.hashring.hashing import hash64, vnode_positions
from repro.obs.runtime import OBS

__all__ = ["HashRing", "RingView"]

ServerId = Hashable


class HashRing:
    """A weighted consistent-hash ring over physical servers; vnode
    positions and keys share :mod:`repro.hashring.hashing`'s one hash.

    Examples
    --------
    >>> ring = HashRing()
    >>> ring.add_server("s1", weight=3)
    >>> ring.add_server("s2", weight=3)
    >>> ring.successor("some-object")  in {"s1", "s2"}
    True
    """

    def __init__(self) -> None:
        self._weights: Dict[ServerId, int] = {}
        # Parallel arrays, rebuilt lazily on membership change.
        self._positions = np.empty(0, dtype=np.uint64)
        self._position_ints: List[int] = []     # _positions.tolist()
        self._owners = np.empty(0, dtype=np.intp)
        self._vnode_idx = np.empty(0, dtype=np.intp)
        self._server_list: List[ServerId] = []
        self._dirty = False
        self._generation = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_server(self, server_id: ServerId, weight: int = 1) -> None:
        """Add *server_id* with *weight* virtual nodes.

        Raises if the server is already on the ring — use
        :meth:`set_weight` to re-weight.
        """
        if server_id in self._weights:
            raise ValueError(f"server already on ring: {server_id!r}")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self._weights[server_id] = int(weight)
        self._mark_dirty()

    def remove_server(self, server_id: ServerId) -> None:
        """Remove *server_id* and all its virtual nodes.

        Only used by the *original* consistent-hashing baseline: the
        elastic design keeps powered-down servers on the ring and skips
        them at placement time instead.
        """
        try:
            del self._weights[server_id]
        except KeyError:
            raise KeyError(f"server not on ring: {server_id!r}") from None
        self._mark_dirty()

    def set_weight(self, server_id: ServerId, weight: int) -> None:
        """Change the vnode count of an existing server."""
        if server_id not in self._weights:
            raise KeyError(f"server not on ring: {server_id!r}")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        if self._weights[server_id] != weight:
            self._weights[server_id] = int(weight)
            self._mark_dirty()

    def _mark_dirty(self) -> None:
        """Membership changed: schedule an array rebuild and advance the
        generation so slot-table caches keyed on the old vnode layout
        (see :mod:`repro.core.kernel`) know to drop themselves."""
        self._dirty = True
        self._generation += 1

    @property
    def generation(self) -> int:
        """Monotonic membership-change counter.  Two calls returning the
        same value guarantee the vnode arrays (and therefore slot
        numbering) are identical — the invalidation key for memoized
        placement tables."""
        return self._generation

    def weight_of(self, server_id: ServerId) -> int:
        return self._weights[server_id]

    @property
    def servers(self) -> Tuple[ServerId, ...]:
        """Servers currently on the ring, in insertion order."""
        return tuple(self._weights)

    def __contains__(self, server_id: ServerId) -> bool:
        return server_id in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def num_vnodes(self) -> int:
        self._rebuild_if_dirty()
        return int(self._positions.size)

    # ------------------------------------------------------------------
    # ring construction
    # ------------------------------------------------------------------
    def _rebuild_if_dirty(self) -> None:
        if not self._dirty:
            return
        OBS.metrics.inc("ring.rebuilds")
        self._server_list = list(self._weights)
        chunks_pos = []
        chunks_owner = []
        chunks_vidx = []
        for idx, sid in enumerate(self._server_list):
            w = self._weights[sid]
            pos = vnode_positions(
                sid if isinstance(sid, (str, bytes, int)) else repr(sid), w)
            chunks_pos.append(pos)
            chunks_owner.append(np.full(w, idx, dtype=np.intp))
            chunks_vidx.append(np.arange(w, dtype=np.intp))
        if chunks_pos:
            positions = np.concatenate(chunks_pos)
            owners = np.concatenate(chunks_owner)
            vidx = np.concatenate(chunks_vidx)
            # Deterministic total order even under position collisions.
            order = np.lexsort((vidx, owners, positions))
            self._positions = positions[order]
            self._owners = owners[order]
            self._vnode_idx = vidx[order]
        else:
            self._positions = np.empty(0, dtype=np.uint64)
            self._owners = np.empty(0, dtype=np.intp)
            self._vnode_idx = np.empty(0, dtype=np.intp)
        self._position_ints = self._positions.tolist()
        self._dirty = False

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def key_position(self, key: Hashable) -> int:
        """Ring position of a data key."""
        # Integral last: only a key that is none of the builtin types
        # pays the ABC check (a NumPy integer is the oid it equals, not
        # its repr).
        return hash64(key if isinstance(key, (str, bytes, int, Integral))
                      else repr(key))

    def _slot_at(self, position: int) -> int:
        """:meth:`successor_slot` on a rebuilt, non-empty ring."""
        positions = self._position_ints
        slot = bisect_left(positions, position)
        return slot if slot < len(positions) else 0

    def successor_slot(self, position: int) -> int:
        """Index (into the vnode arrays) of the first vnode at or after
        *position*, wrapping at the top of the ring."""
        self._rebuild_if_dirty()
        if not self._position_ints:
            raise LookupError("ring is empty")
        return self._slot_at(position)

    def successor(self, key: Hashable) -> ServerId:
        """Physical server owning the first vnode clockwise of *key*."""
        slot = self.successor_slot(self.key_position(key))
        return self._server_list[self._owners[slot]]

    def walk_slots(self, position: int) -> Iterator[int]:
        """Iterate vnode slots clockwise from *position*, once around.

        The walk visits every vnode exactly once; callers dedupe to
        physical servers and apply their own skip rules (this is the
        primitive under both the original and the primary-server
        placement algorithms).
        """
        self._rebuild_if_dirty()
        n = len(self._position_ints)
        if n == 0:
            return
        start = self._slot_at(position)
        for i in range(n):
            yield (start + i) % n

    def walk_servers(self, position: int) -> Iterator[ServerId]:
        """Iterate *distinct* physical servers clockwise from *position*.

        Each server is yielded at its first vnode encounter, in ring
        order — the canonical successor list used by placement.
        """
        # Rebuild eagerly: this is a generator, so attribute reads must
        # not happen before walk_slots() has refreshed the arrays.
        self._rebuild_if_dirty()
        seen: set = set()
        owners = self._owners
        slist = self._server_list
        for slot in self.walk_slots(position):
            oid = owners[slot]
            if oid not in seen:
                seen.add(oid)
                yield slist[oid]

    def find(
        self,
        key: Hashable,
        r: int = 1,
        predicate: Optional[Callable[[ServerId], bool]] = None,
    ) -> List[ServerId]:
        """Original consistent-hashing placement: the first *r* distinct
        servers clockwise of *key* that satisfy *predicate*.

        Raises ``LookupError`` when fewer than *r* eligible servers
        exist — the caller decides whether that is fatal (reads) or
        triggers degraded placement (writes).
        """
        out: List[ServerId] = []
        for sid in self.walk_servers(self.key_position(key)):
            if predicate is None or predicate(sid):
                out.append(sid)
                if len(out) == r:
                    return out
        raise LookupError(
            f"only {len(out)} of {r} requested servers eligible for {key!r}"
        )

    # ------------------------------------------------------------------
    # bulk / analysis helpers
    # ------------------------------------------------------------------
    def bulk_successor_slots(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised successor-*slot* lookup: the slot index of the
        first vnode at or after each position, wrapping at the top.

        This is the entry point of the memoized placement kernel
        (:mod:`repro.core.kernel`): a whole key array reduces to one
        ``searchsorted`` and the per-slot placement table does the rest.
        """
        self._rebuild_if_dirty()
        if self._positions.size == 0:
            raise LookupError("ring is empty")
        slots = np.searchsorted(self._positions, positions, side="left")
        slots %= self._positions.size
        return slots

    def bulk_successor(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised first-successor lookup.

        Parameters
        ----------
        positions:
            ``uint64`` array of key positions.

        Returns
        -------
        numpy.ndarray
            ``intp`` array of server indices (into :attr:`servers`).
        """
        # Resolve slots first: it rebuilds a dirty ring, and the
        # rebuild rebinds ``_owners`` (reading the attribute before the
        # call would index the stale pre-rebuild array).
        slots = self.bulk_successor_slots(positions)
        return self._owners[slots]

    def arc_share(self) -> Dict[ServerId, float]:
        """Fraction of the ring owned by each server (sum of the arcs
        preceding its vnodes).  The expected share of single-copy keys —
        used by layout tests and Figure 5's distribution analysis."""
        self._rebuild_if_dirty()
        n = self._positions.size
        if n == 0:
            return {}
        pos = self._positions.astype(np.float64)
        # Arc before vnode i is owned by vnode i (clockwise successor).
        prev = np.roll(pos, 1)
        arcs = pos - prev
        arcs[0] = pos[0] + (2.0**64 - prev[0])
        total = arcs.sum()
        # One weighted bincount instead of a boolean-mask pass per
        # server (the old way was O(V·n)).
        sums = np.bincount(self._owners, weights=arcs,
                           minlength=len(self._server_list))
        return {sid: float(sums[idx] / total)
                for idx, sid in enumerate(self._server_list)}

    def view(self, predicate: Callable[[ServerId], bool]) -> "RingView":
        """A filtered view of the ring (see :class:`RingView`)."""
        return RingView(self, predicate)


class RingView:
    """A read-only view of a :class:`HashRing` restricted to servers that
    satisfy a predicate (e.g. "is powered on").

    Views are how the elastic design expresses *skip inactive* / *skip
    primary* / *skip secondary* without mutating the ring: the underlying
    vnode arrays are shared, only the walk filter differs.
    """

    def __init__(self, ring: HashRing,
                 predicate: Callable[[ServerId], bool]) -> None:
        self._ring = ring
        self._predicate = predicate

    def find(self, key: Hashable, r: int = 1) -> List[ServerId]:
        return self._ring.find(key, r, self._predicate)

    def walk_servers(self, position: int) -> Iterator[ServerId]:
        for sid in self._ring.walk_servers(position):
            if self._predicate(sid):
                yield sid

    def servers(self) -> List[ServerId]:
        return [s for s in self._ring.servers if self._predicate(s)]
