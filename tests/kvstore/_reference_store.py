"""Test-only oracle: :class:`ReplicatedKVStore` with the whole-keyspace
passes as they were written before the per-view replica-set table and
the key-major replica storage.

``replica_set`` re-hashes the key and re-walks the ring on every call,
``audit`` / ``_anti_entropy_pass`` ask **every** admitted node about
**every** key (re-sorting ``self._nodes`` once per key and building a
``_vv_sortkey`` for every comparison), and ``_choose_reply`` is its own
copy of the newest-copy loop.  The bodies are the node-major ones,
verbatim; only the spelling of "node *nid*'s table" changed with the
storage — :class:`_Table` reads it out of the ``key -> {node: copy}``
mapping one node at a time.  The oracle never takes the product's
in-sync early-out and never reads its owner tuple or position memo.
Nothing here is reachable from ``src/``; the differential tests drive
this class and the real store side by side and require identical
placement, node contents, audit reports, stats and events.
"""

from typing import Dict, List, Optional

from repro.kvstore.replicated import (
    ReplicatedKVStore,
    _Versioned,
    _vv_sortkey,
    vv_dominates,
)
from repro.obs.runtime import OBS


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
