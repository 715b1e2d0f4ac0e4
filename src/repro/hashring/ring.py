"""The hash ring: sorted virtual-node positions with successor walks.

The ring is the data structure from §II-A of the paper: server ids are
expanded into virtual nodes, each virtual node is hashed to a position
in ``[0, 2**64)``, and a key is served by the first virtual node(s)
found walking clockwise from the key's own hash.

Implementation notes
--------------------
* A ring is a value: the constructor takes every server's weight,
  builds the arrays once (O(V log V); every vnode position comes from
  one whole-ring array pass, not one call per server) and nothing
  changes them afterwards.  Powering a server *off* never touches the
  ring (§IV: "servers never leave the cluster when they are turned
  down"), and neither does a server *leaving* the original-CH
  baseline: walking distinct servers clockwise while skipping
  non-members gives the same replicas, in the same order, as walking a
  ring built from the members alone.  Membership is a placement-time filter, never a ring mutation;
  a new weighting (a re-layout) is a new ring.
* Positions live in a single sorted ``numpy.uint64`` array with a
  parallel ``intp`` array of owning-server indices, so bulk successor
  lookups are one ``np.searchsorted``; the same positions are kept as
  a list of Python ints, so a scalar successor lookup is one
  ``bisect_left`` (O(log V), exact, no NumPy scalar boxing).
* Ties (two vnodes hashing to the same position) are broken
  deterministically by (position, server index, vnode index) so every
  process derives the identical ring; the server index is the
  server's place in the weights mapping.
"""

from __future__ import annotations

from bisect import bisect_left
from numbers import Integral
from typing import Dict, Hashable, Iterator, Mapping, Tuple

import numpy as np

from repro.hashring.hashing import hash64, vnode_positions
from repro.obs.runtime import OBS

__all__ = ["HashRing"]

ServerId = Hashable


class HashRing:
    """A weighted consistent-hash ring over physical servers, built once
    from ``{server: vnode count}``; vnode positions and keys share
    :mod:`repro.hashring.hashing`'s one hash.

    Examples
    --------
    >>> ring = HashRing({"s1": 3, "s2": 3})
    >>> next(ring.walk_servers(ring.key_position("some-object"))) in ring
    True
    >>> ring.num_vnodes
    6
    """

    def __init__(self, weights: Mapping[ServerId, int]) -> None:
        for sid, w in weights.items():
            if not isinstance(w, Integral):
                raise ValueError(
                    f"weights[{sid!r}] must be an integer, got {w!r}")
        self._weights: Dict[ServerId, int] = {
            sid: int(w) for sid, w in weights.items()}
        if any(w < 1 for w in self._weights.values()):
            raise ValueError("weight must be >= 1")
        OBS.metrics.inc("ring.rebuilds")
        self._server_list = list(self._weights)
        counts = list(self._weights.values())
        positions = vnode_positions(self._server_list, counts)
        owners = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        # The input runs server by server, vnode by vnode, and lexsort
        # is stable: ties break by (server, vnode) index.
        order = np.lexsort((owners, positions))
        self._positions = positions[order]
        self._position_ints = self._positions.tolist()
        self._owners = owners[order]

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def weight_of(self, server_id: ServerId) -> int:
        return self._weights[server_id]

    @property
    def servers(self) -> Tuple[ServerId, ...]:
        """Servers on the ring, in the order of the weights mapping."""
        return tuple(self._server_list)

    def __contains__(self, server_id: ServerId) -> bool:
        return server_id in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def num_vnodes(self) -> int:
        return len(self._position_ints)

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

    def successor_slot(self, position: int) -> int:
        """Index (into the vnode arrays) of the first vnode at or after
        *position*, wrapping at the top of the ring."""
        positions = self._position_ints
        if not positions:
            raise LookupError("ring is empty")
        slot = bisect_left(positions, position)
        return slot if slot < len(positions) else 0

    def walk_servers(self, position: int) -> Iterator[ServerId]:
        """Iterate *distinct* physical servers clockwise from *position*,
        once around the ring.

        Each server is yielded at its first vnode encounter, in ring
        order — the canonical successor list used by placement; callers
        apply their own skip rules.  An empty ring yields nothing.
        """
        n = len(self._position_ints)
        if n == 0:
            return
        start = self.successor_slot(position)
        seen: set = set()
        owners = self._owners
        slist = self._server_list
        for i in range(n):
            oid = owners[(start + i) % n]
            if oid not in seen:
                seen.add(oid)
                yield slist[oid]

    # ------------------------------------------------------------------
    # bulk / analysis helpers
    # ------------------------------------------------------------------
    def bulk_successor_slots(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised successor-*slot* lookup: the slot index of the
        first vnode at or after each position, wrapping at the top.

        This is the entry point of the memoized placement kernel
        (:mod:`repro.core.kernel`): a whole key array reduces to one
        ``searchsorted`` and the per-slot placement table does the rest.
        The needles are searched in ascending order (``argsort``, one
        ``searchsorted``, a scatter back), which walks the vnode array
        front to back: twice as fast on a 60k-key catalog.
        """
        size = self._positions.size
        if size == 0:
            raise LookupError("ring is empty")
        order = np.argsort(positions)
        found = np.searchsorted(self._positions, positions[order])
        found[found == size] = 0
        slots = np.empty_like(found)
        slots[order] = found
        return slots

    def arc_share(self) -> Dict[ServerId, float]:
        """Fraction of the ring owned by each server (sum of the arcs
        preceding its vnodes).  The expected share of single-copy keys —
        used by layout tests and Figure 5's distribution analysis."""
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
