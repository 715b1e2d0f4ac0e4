"""Data placement: the original consistent-hashing rule and the
primary-server rule of Algorithm 1 (§III-B).

Both placements walk the hash ring clockwise from the object's hash.
The primary-server rule adds role constraints so that **exactly one**
replica lands on a primary server:

* replica 1 goes to the next *active* server of any role;
* replicas 2..r-1 go to the next active server, unless a primary was
  already selected, in which case primaries are skipped;
* the last replica goes to the next active *secondary* if a primary was
  already selected, otherwise to the next active *primary*.

Inactive servers are always skipped (write-availability offloading,
§III-E): powered-down servers stay on the ring, placement just walks
past them.

Two *chaining* strategies decide where the walk for replica *i* starts:

``"walk"`` (default)
    Continue clockwise from the virtual node where replica *i-1* was
    found — the conventional Sheepdog/Dynamo successor-list behaviour.

``"rehash"``
    Restart the walk at ``hash(server(i-1))`` — the literal reading of
    Algorithm 1's ``next_server(hash(server(i-1)))``.

Both satisfy the one-copy-on-primary invariant; the ablation bench
compares their distribution quality and movement on resize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Literal, Optional, Tuple

from repro.hashring.hashing import hash64
from repro.hashring.ring import HashRing

__all__ = ["ChainMode", "PlacementResult", "place_original", "place_primary",
           "place_original_from_slot", "place_primary_from_slot"]

ChainMode = Literal["walk", "rehash"]

Predicate = Callable[[Hashable], bool]


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of placing one object.

    Attributes
    ----------
    servers:
        Selected physical servers, in replica order (replica 1 first).
    degraded:
        True when the §III-B special case fired: the role constraints
        could not be met (e.g. fewer than r-1 active secondaries) and
        primaries were temporarily treated as secondaries.  Replication
        level is still met.
    skipped_inactive:
        True when at least one inactive server was walked past while
        selecting — i.e. this write was *offloaded* and must be
        recorded in the dirty table if the cluster is not at full
        power.
    """

    servers: Tuple[Hashable, ...]
    degraded: bool = False
    skipped_inactive: bool = False

    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self):
        return iter(self.servers)

    def __contains__(self, sid: Hashable) -> bool:
        return sid in self.servers


def place_original(
    ring: HashRing,
    oid: Hashable,
    r: int,
    is_active: Optional[Predicate] = None,
) -> PlacementResult:
    """Original consistent hashing (§II-A): the first *r* distinct
    servers clockwise of ``hash(oid)``.

    With *is_active* given, inactive servers are skipped — in the real
    baseline system inactive servers have *left* the ring, which yields
    the same server set for the first replica but can differ for later
    ones; the baseline cluster model removes servers instead, this
    filter exists for analysis convenience.
    """
    ring._rebuild_if_dirty()
    if ring._positions.size == 0:
        raise LookupError("ring is empty")
    slot = ring.successor_slot(ring.key_position(oid))
    try:
        return place_original_from_slot(ring, slot, r, is_active)
    except LookupError as exc:
        raise LookupError(f"{exc} (oid {oid!r})") from None


def place_original_from_slot(
    ring: HashRing,
    slot: int,
    r: int,
    is_active: Optional[Predicate] = None,
) -> PlacementResult:
    """Original placement anchored at a vnode *slot* rather than a key.

    For a fixed membership this is the whole story of a key's
    placement: every key sharing a successor slot walks the identical
    server sequence, which is what lets the placement kernel
    (:mod:`repro.core.kernel`) compute each slot once and serve every
    key from the table.
    """
    if r < 1:
        raise ValueError("replica count must be >= 1")
    ring._rebuild_if_dirty()
    n = ring._positions.size
    if n == 0:
        raise LookupError("ring is empty")
    owners = ring._owners
    slist = ring._server_list
    servers: List[Hashable] = []
    seen: set = set()
    skipped = False
    for step in range(n):
        oidx = owners[(slot + step) % n]
        if oidx in seen:
            continue
        seen.add(oidx)
        sid = slist[oidx]
        if is_active is not None and not is_active(sid):
            skipped = True
        else:
            servers.append(sid)
            if len(servers) == r:
                return PlacementResult(tuple(servers),
                                       skipped_inactive=skipped)
        if len(seen) == len(slist):
            break   # every server met: no vnode further on is new
    raise LookupError(
        f"only {len(servers)} of {r} replicas placeable"
    )


class _RingWalker:
    """Stateful slot-level walk used by the primary placement.

    Keeps the current slot so ``chain="walk"`` can continue where the
    previous replica stopped, and exposes a bounded full-circle search
    with arbitrary predicates.
    """

    def __init__(self, ring: HashRing, slot: int) -> None:
        self._ring = ring
        ring._rebuild_if_dirty()
        self._n = ring._positions.size
        if self._n == 0:
            raise LookupError("ring is empty")
        self._slot = slot

    def restart_at(self, position: int) -> None:
        self._slot = self._ring.successor_slot(position)

    def find(self, predicate: Predicate,
             on_skip_inactive: Optional[Callable[[Hashable], None]] = None,
             is_active: Optional[Predicate] = None) -> Optional[Hashable]:
        """First server satisfying *predicate* within one full circle
        from the current slot; advances the cursor past the match.

        *on_skip_inactive* is invoked for each distinct inactive server
        walked past (offload detection)."""
        ring = self._ring
        owners = ring._owners
        slist = ring._server_list
        seen: set = set()
        for step in range(self._n):
            slot = (self._slot + step) % self._n
            sid = slist[owners[slot]]
            if sid in seen:
                continue
            seen.add(sid)
            if (on_skip_inactive is not None and is_active is not None
                    and not is_active(sid)):
                on_skip_inactive(sid)
            if predicate(sid):
                self._slot = (slot + 1) % self._n
                return sid
            if len(seen) == len(slist):
                break   # every server met: no vnode further on is new
        return None


def place_primary(
    ring: HashRing,
    oid: Hashable,
    r: int,
    is_primary: Predicate,
    is_active: Predicate,
    chain: ChainMode = "walk",
) -> PlacementResult:
    """Primary-server data placement — Algorithm 1 (§III-B).

    Parameters
    ----------
    ring:
        The (equal-work-weighted) hash ring.  Inactive servers are
        still on it; they are skipped here, not removed.
    oid:
        Object id.
    r:
        Replication factor.
    is_primary / is_active:
        Role and power-state oracles (rank-based in practice).
    chain:
        Where each replica's walk starts (see module docstring).

    Raises
    ------
    LookupError
        When fewer than *r* active servers exist in total.
    """
    ring._rebuild_if_dirty()
    if ring._positions.size == 0:
        raise LookupError("ring is empty")
    slot = ring.successor_slot(ring.key_position(oid))
    try:
        return place_primary_from_slot(ring, slot, r, is_primary,
                                       is_active, chain)
    except LookupError as exc:
        raise LookupError(f"{exc} (oid {oid!r})") from None


def place_primary_from_slot(
    ring: HashRing,
    slot: int,
    r: int,
    is_primary: Predicate,
    is_active: Predicate,
    chain: ChainMode = "walk",
) -> PlacementResult:
    """Algorithm 1 anchored at a vnode *slot* rather than a key hash.

    The walk (both chain modes) depends only on the starting slot and
    the cluster state — never on the key itself — so this is the unit
    the placement kernel memoizes per ``(version, chain, r)``.
    """
    if r < 1:
        raise ValueError("replica count must be >= 1")

    selected: List[Hashable] = []
    skipped_inactive = [False]
    degraded = False

    def note_skip(_sid: Hashable) -> None:
        skipped_inactive[0] = True

    def not_selected(sid: Hashable) -> bool:
        return sid not in selected

    def eligible(role_pred: Optional[Predicate]) -> Predicate:
        def pred(sid: Hashable) -> bool:
            return (not_selected(sid) and is_active(sid)
                    and (role_pred is None or role_pred(sid)))
        return pred

    def is_secondary(sid: Hashable) -> bool:
        return not is_primary(sid)

    walker = _RingWalker(ring, slot)

    def select(role_pred: Optional[Predicate]) -> Optional[Hashable]:
        """One replica: role-constrained search, falling back to the
        §III-B special case (ignore roles) when the constraint cannot
        be met."""
        nonlocal degraded
        start_slot = walker._slot
        sid = walker.find(eligible(role_pred), note_skip, is_active)
        if sid is None and role_pred is not None:
            degraded = True
            walker._slot = start_slot
            sid = walker.find(eligible(None), note_skip, is_active)
        return sid

    def advance_chain() -> None:
        """Position the walk for the next replica per the chain mode."""
        if chain == "rehash":
            walker.restart_at(hash64(
                selected[-1] if isinstance(selected[-1], (str, bytes, int))
                else repr(selected[-1])))
        # chain == "walk": walker already sits just past the match.

    def have_primary() -> bool:
        return any(is_primary(s) for s in selected)

    if r == 1:
        # Degenerate case: the single copy is the "one copy on a
        # primary" copy.
        sid = select(is_primary)
        if sid is None:
            raise LookupError("no active server")
        selected.append(sid)
        return PlacementResult(tuple(selected), degraded=degraded,
                               skipped_inactive=skipped_inactive[0])

    # First replica: next active server, any role (Algorithm 1 line 2).
    sid = select(None)
    if sid is None:
        raise LookupError("no active server")
    selected.append(sid)

    # Replicas 2 .. r-1 (lines 3-9).
    for _i in range(2, r):
        advance_chain()
        role = is_secondary if have_primary() else None
        sid = select(role)
        if sid is None:
            raise LookupError(
                f"only {len(selected)} of {r} replicas placeable")
        selected.append(sid)

    # Last replica (lines 10-15): enforce the one-primary invariant.
    advance_chain()
    role = is_secondary if have_primary() else is_primary
    sid = select(role)
    if sid is None:
        raise LookupError(
            f"only {len(selected)} of {r} replicas placeable")
    selected.append(sid)

    return PlacementResult(tuple(selected), degraded=degraded,
                           skipped_inactive=skipped_inactive[0])
