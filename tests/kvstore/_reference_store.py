"""Test-only oracle: :class:`ReplicatedKVStore` with the whole-keyspace
passes as they were written before the per-view replica-set table and
the key-major replica storage, and the quorum op path as it was before
it became one pass over the replicas.

``replica_set`` re-hashes the key and re-walks the ring on every call,
``audit`` / ``_anti_entropy_pass`` ask **every** admitted node about
**every** key (re-sorting ``self._nodes`` once per key and building a
``_vv_sortkey`` for every comparison), and ``_choose_reply`` is its own
copy of the newest-copy loop.  The bodies are the node-major ones,
verbatim; only the spelling of "node *nid*'s table" changed with the
storage — :class:`_Table` reads it out of the ``key -> {node: copy}``
mapping one node at a time.  The oracle never takes the product's
in-sync early-out and never reads its owner tuple or position memo.
The op path is the earlier one, verbatim: ``_gather`` asks
``_reachable`` about every replica and gives each one that never saw
the key its own empty copy; ``_read`` / ``_mutate`` look their session
up through ``session()``, take the quorum and a node's name afresh per
op and re-sort every vector they emit; ``vv_dominates`` compares
even equal vectors key by key (``_enforce_floor`` calls this file's);
and every commit builds a fresh ring, slot table and owner table,
whatever member set it was given before.  ``_replicate`` and
``Session.observe`` did not change, so the oracle inherits them.
Nothing here is reachable from ``src/``; the differential tests drive
this class and the real store side by side and require identical
placement, node contents, audit reports, stats and events.
"""

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.kernel import SlotPlacementTable
from repro.hashring.ring import HashRing
from repro.kvstore import replicated
from repro.kvstore.commands import Value
from repro.kvstore.replicated import (
    NodeId,
    NoQuorumError,
    ReplicatedKVStore,
    Session,
    StaleSessionError,
    VersionVector,
    _Versioned,
    _vv_sortkey,
)
from repro.obs.runtime import OBS


def vv_dominates(a: VersionVector, b: VersionVector) -> bool:
    """True when *a* >= *b* componentwise (a reflects every write b
    does)."""
    return all(a.get(node, 0) >= count for node, count in b.items())


class _Table:
    """Node *nid*'s ``key -> copy`` table, as a view of the store's
    key-major mapping (what ``_Node.data`` used to be)."""

    def __init__(self, store, nid):
        self._copies = store._copies
        self._nid = nid

    def get(self, key):
        return self._copies.get(key, {}).get(self._nid)

    def __getitem__(self, key):
        return self._copies[key][self._nid]

    def __setitem__(self, key, versioned):
        self._copies.setdefault(key, {})[self._nid] = versioned

    def __delitem__(self, key):
        del self._copies[key][self._nid]
        if not self._copies[key]:
            del self._copies[key]

    def items(self):
        return [(key, copies[self._nid])
                for key, copies in self._copies.items()
                if self._nid in copies]


class ReferenceKVStore(ReplicatedKVStore):
    """The unmemoised, every-key × every-node store (pre-table,
    node-major bodies, verbatim)."""

    def _data(self, nid):
        return _Table(self, nid)

    # -- views: a fresh ring per commit ---------------------------------
    def _build_ring(self, members: Sequence[NodeId]) -> None:
        """A fresh ring over *members*, its original-CH slot table, and
        every known key's owners read from that table in one array
        pass.  Placement is a pure function of (key, committed view),
        so the owner table lives exactly as long as the ring it was
        read from — that is its only invalidation."""
        for nid in members:
            self._admit(nid)
        self._ring = HashRing(dict.fromkeys(members,
                                            replicated.VNODES_PER_NODE))
        self._table = SlotPlacementTable(self._ring, self.replicas, None)
        positions = np.fromiter(self._positions.values(), dtype=np.uint64,
                                count=len(self._positions))
        rows = self._table.gather(
            self._ring.bulk_successor_slots(positions)).servers.tolist()
        self._owners = dict(zip(self._positions, map(tuple, rows)))

    # -- the quorum op path --------------------------------------------
    def _gather(self, key: str) -> Tuple[List[Tuple[NodeId, _Versioned]],
                                         List[NodeId], NodeId]:
        targets = self._owners_of(key)
        coordinator = targets[0]
        copies = self._copies.get(key, {})
        replies: List[Tuple[NodeId, _Versioned]] = []
        reachable: List[NodeId] = []
        for nid in targets:
            if not self._reachable(nid, coordinator):
                continue
            reachable.append(nid)
            versioned = copies.get(nid)
            replies.append((nid, versioned if versioned is not None
                            else _Versioned(vv={}, state=None)))
        return replies, reachable, coordinator

    def _enforce_floor(self, key: str, vv: VersionVector,
                       session: Optional[Session]) -> None:
        if session is None:
            return
        floor = session.floor.get(key)
        if floor and not vv_dominates(vv, floor):
            raise StaleSessionError(
                f"key {key!r}: reachable replicas are behind client "
                f"{session.client!r}'s causal floor")

    def _mutate(self, key: str, transform: Callable[[Value], Value],
                client: Optional[str] = None) -> Tuple[Any, VersionVector]:
        replies, reachable, coordinator = self._gather(key)
        session = self.session(client) if client is not None else None
        need = self.quorum
        if len(reachable) < need and self._on_no_quorum == "raise":
            self.stats["writes_failed"] += 1
            if OBS.bus.active:
                OBS.bus.emit("kv.write.fail", key=key,
                             client=client, got=len(reachable),
                             need=need, epoch=self._epoch)
            raise NoQuorumError(key, len(reachable), need)
        if not reachable:
            # Even degrade mode needs one replica to land the write on.
            self.stats["writes_failed"] += 1
            if OBS.bus.active:
                OBS.bus.emit("kv.write.fail", key=key,
                             client=client, got=0, need=need,
                             epoch=self._epoch)
            raise NoQuorumError(key, 0, need)
        current = self._choose_reply(replies)
        new_vv = dict(current.vv)
        cnode = str(coordinator)
        new_vv[cnode] = new_vv.get(cnode, 0) + 1
        new_state = transform(current.state)
        acked = self._replicate(
            key, _Versioned(vv=new_vv, state=new_state), reachable)
        quorum_met = len(acked) >= need
        if quorum_met:
            self._record_ack(key, new_vv)
            self.stats["writes_acked"] += 1
            if session is not None:
                session.observe(key, new_vv)
            if OBS.bus.active:
                OBS.bus.emit("kv.write.ack", key=key, client=client,
                             vv=dict(sorted(new_vv.items())),
                             acks=sorted(map(str, acked)),
                             epoch=self._epoch)
        else:
            # Sub-quorum, degrade mode: applied but not durable-acked.
            self.stats["writes_degraded"] += 1
            if session is not None:
                session.observe(key, new_vv)
            if OBS.bus.active:
                OBS.bus.emit("kv.write.degraded", key=key, client=client,
                             vv=dict(sorted(new_vv.items())),
                             acks=sorted(map(str, acked)),
                             need=need, epoch=self._epoch)
        self._settle(key)
        return current.state, new_vv

    def _read(self, key: str, client: Optional[str] = None
              ) -> Tuple[Value, VersionVector, bool]:
        replies, reachable, _coordinator = self._gather(key)
        session = self.session(client) if client is not None else None
        if not replies:
            self.stats["reads_failed"] += 1
            if OBS.bus.active:
                OBS.bus.emit("kv.read.fail", key=key, client=client,
                             got=0, need=self.quorum,
                             epoch=self._epoch)
            raise NoQuorumError(key, 0, self.quorum)
        best = self._choose_reply(replies)
        acked = self._acked.get(key)
        degraded = (len(replies) < self.quorum
                    or (acked is not None
                        and not vv_dominates(best.vv, acked)))
        try:
            self._enforce_floor(key, best.vv, session)
        except StaleSessionError:
            self.stats["reads_failed"] += 1
            if OBS.bus.active:
                OBS.bus.emit("kv.read.fail", key=key, client=client,
                             got=len(replies), need=self.quorum,
                             reason="stale", epoch=self._epoch)
            raise
        repaired = 0
        for nid, versioned in replies:
            if versioned.vv != best.vv:
                self._copies[key][nid] = best.copy()
                repaired += 1
        if repaired:
            self.stats["repair_copies"] += repaired
            self._settle(key)
        self.stats["reads"] += 1
        if degraded:
            self.stats["reads_degraded"] += 1
        if session is not None:
            session.observe(key, best.vv)
        if OBS.bus.active:
            OBS.bus.emit("kv.read", key=key, client=client,
                         vv=dict(sorted(best.vv.items())),
                         replies=len(replies), degraded=degraded,
                         epoch=self._epoch)
        return best.state, best.vv, degraded

    # -- the whole-keyspace passes -------------------------------------

    def keys(self):
        return self._all_keys()

    def _all_keys(self, include_tombstones=False):
        seen = set()
        for nid in sorted(self._nodes, key=str):
            for key, versioned in self._data(nid).items():
                if include_tombstones or versioned.state is not None:
                    seen.add(key)
        return sorted(seen)

    def _owners_of(self, key):
        return tuple(self.replica_set(key))    # no table, no memo

    def replica_set(self, key):
        out = []
        for nid in self._ring.walk_servers(self._ring.key_position(key)):
            out.append(nid)
            if len(out) == self.replicas:
                break
        return out

    def _choose_reply(self, replies):
        best = replies[0][1]
        for _nid, versioned in replies[1:]:
            if _vv_sortkey(versioned.vv) > _vv_sortkey(best.vv):
                best = versioned
        return best

    def _anti_entropy_pass(self, reason="manual"):
        copied = 0
        dropped = 0
        for key in self._all_keys(include_tombstones=True):
            best: Optional[_Versioned] = None
            holders: List = []
            for nid in sorted(self._nodes, key=str):
                versioned = self._data(nid).get(key)
                if versioned is None:
                    continue
                holders.append(nid)
                if best is None or (_vv_sortkey(versioned.vv)
                                    > _vv_sortkey(best.vv)):
                    best = versioned
            if best is None:
                continue
            owners = self.replica_set(key)
            coordinator = owners[0]
            for nid in owners:
                if not self._reachable(nid, coordinator):
                    continue
                have = self._data(nid).get(key)
                if have is None or have.vv != best.vv:
                    self._data(nid)[key] = best.copy()
                    copied += 1
            owner_set = set(owners)
            for nid in holders:
                if nid in owner_set or nid in self._down:
                    continue
                if any(self._data(o).get(key) is not None
                       and vv_dominates(self._data(o)[key].vv,
                                        self._data(nid)[key].vv)
                       for o in owners):
                    del self._data(nid)[key]
                    dropped += 1
        self.stats["repair_copies"] += copied
        if OBS.bus.active:
            OBS.bus.emit("kv.repair", epoch=self._epoch, reason=reason,
                         copied=copied, dropped=dropped)
        return copied

    def audit(self, label="periodic"):
        lost = 0
        under = 0
        live_keys = 0
        for key in sorted(self._acked):
            acked_vv = self._acked[key]
            newest: Optional[_Versioned] = None
            for nid in sorted(self._nodes, key=str):
                versioned = self._data(nid).get(key)
                if versioned is not None and (
                        newest is None or _vv_sortkey(versioned.vv)
                        > _vv_sortkey(newest.vv)):
                    newest = versioned
            if newest is None or not vv_dominates(newest.vv, acked_vv):
                lost += 1
                continue
            if newest.state is None:
                continue
            live_keys += 1
            holders = 0
            for nid in self.replica_set(key):
                versioned = self._data(nid).get(key)
                if versioned is not None and vv_dominates(versioned.vv,
                                                          acked_vv):
                    holders += 1
            if holders < self.replicas:
                under += 1
        report: Dict[str, object] = {
            "label": label, "epoch": self._epoch, "keys": live_keys,
            "lost_acked": lost, "under_replicated": under,
        }
        if OBS.bus.active:
            OBS.bus.emit("kv.audit", label=label, epoch=self._epoch,
                         keys=live_keys, lost_acked=lost,
                         under_replicated=under)
        return report
