"""R-way replicated, membership-versioned key-value service.

§III-E-2 keeps the dirty table "in a distributed key-value store
across the storage servers" — which means the metadata substrate must
survive exactly the faults :mod:`repro.faults` injects elsewhere: a
crashed server loses its local shard, a partition makes replicas
unreachable, and an elastic resize moves key ownership while traffic
flows.  :class:`ReplicatedKVStore` layers all of that on the existing
:class:`~repro.hashring.ring.HashRing`:

* **replica sets from ring successors** — a key's replicas are the
  first R distinct members found walking clockwise from the key's
  hash, so a membership change remaps only the keys whose successor
  list actually changed (the consistent-hash minimal-movement
  property, applied to the metadata store itself);
* **epoch-numbered views** — membership changes are explicit two-step
  :meth:`propose_view` / :meth:`commit_view` transitions; epochs only
  grow, ops always run against the last *committed* view, and the
  commit runs an anti-entropy pass so the new replica sets hold the
  newest state before the view serves reads;
* **quorum reads/writes with per-key version vectors** — every
  mutation merges the newest readable vector and bumps the
  coordinator's entry; a read gathers a quorum, returns the dominant
  reply, and repairs stale reachable replicas in place.  Client
  sessions (:class:`Session`) carry causal floors so read-your-writes
  and monotonic-reads hold across live resharding: a read that cannot
  satisfy its session floor fails (``unavailable``) instead of
  returning stale data;
* **crash/partition handling** — :meth:`crash_node` drops the node's
  copy of every key (a crash loses its local data, as in
  :meth:`repro.cluster.cluster.ElasticCluster.crash_server`);
  :meth:`repair_node` re-admits it empty and immediately re-replicates
  toward it; a ``link_blocked`` predicate (wire it to
  :meth:`repro.faults.injector.FaultInjector.link_blocked`) makes
  partitions ambient;
* **degraded reads flagged as such** — a read that can only reach a
  single replica is served (sessionless or floor-satisfying) with
  ``degraded=True`` on its ``kv.read`` event, mirroring the cluster's
  degraded read path.

Every decision the consistency checkers care about is emitted as a
``kv.*`` trace event (see :mod:`repro.obs.invariants`):
``kv.view.propose`` / ``kv.view.commit``, ``kv.write.ack`` /
``kv.write.fail`` / ``kv.write.degraded``, ``kv.read`` /
``kv.read.fail``, ``kv.repair`` and ``kv.audit``.  All iteration is
over sorted structures, so a seeded run's event stream is
byte-identical across replays.

Replicas are stored **key-major**: one ``key -> {node: copy}`` mapping
holds every copy there is, so the whole-keyspace passes (anti-entropy,
:meth:`~ReplicatedKVStore.audit`) read a key's ~R copies instead of
asking every node.  A membership change costs what it changes: each
committed view reads every known key's owners out of its slot table in
one array pass; views are cached per member tuple, so a member set
committed before gets its ring, slot table and owners back and reads
only the keys first seen since.  A key is *settled* — exactly R
copies, all on its owners, all at the acked vector, all live or all
tombstones — until an op, a crash, a wipe or a changed owner tuple
touches it.  Both passes visit only the keys that are not settled.

The command surface is :class:`~repro.kvstore.store.KVStore`'s — both
apply the one command table of :mod:`repro.kvstore.commands` (strings +
Redis LISTs) — so :class:`~repro.core.dirty_table.DirtyTable` runs
unchanged on top of either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from numbers import Integral
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.kernel import SlotPlacementTable
from repro.hashring.ring import HashRing
from repro.kvstore import commands
from repro.kvstore.commands import Value
from repro.obs.runtime import OBS

__all__ = [
    "NoQuorumError",
    "StaleSessionError",
    "Session",
    "View",
    "ReplicatedKVStore",
]

NodeId = Hashable

#: A per-key version vector: ``str(node) -> write count``.  Keys are
#: stringified so the vector embeds directly in JSONL trace events.
VersionVector = Dict[str, int]


class NoQuorumError(RuntimeError):
    """A strict-mode mutation (or quorum read) could not reach enough
    replicas.  Carries the key and how many replicas answered."""

    def __init__(self, key: str, got: int, need: int) -> None:
        self.key = key
        self.got = got
        self.need = need
        super().__init__(
            f"key {key!r}: only {got} of the {need} required replicas "
            f"reachable")


class StaleSessionError(RuntimeError):
    """Every reachable replica is older than the session's causal
    floor — serving the read would break read-your-writes or
    monotonic-reads, so the store refuses instead."""


# ----------------------------------------------------------------------
# version vectors
# ----------------------------------------------------------------------
def vv_dominates(a: VersionVector, b: VersionVector) -> bool:
    """True when *a* >= *b* componentwise (a reflects every write b
    does)."""
    return a == b or all(a.get(node, 0) >= count for node, count in b.items())


def vv_merge(a: VersionVector, b: VersionVector) -> VersionVector:
    out = dict(a)
    for node, count in b.items():
        if count > out.get(node, 0):
            out[node] = count
    return out


def _vv_sortkey(vv: VersionVector) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
    """Deterministic total order extending dominance: by total count,
    then lexicographically — concurrent vectors tie-break identically
    in every process."""
    return (sum(vv.values()), tuple(sorted(vv.items())))


# ----------------------------------------------------------------------
# views and sessions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class View:
    """One committed membership epoch."""

    epoch: int
    members: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a view needs at least one member")


@dataclass
class Session:
    """Per-client causal metadata: the floor a read must dominate.

    ``floor[key]`` is the merge of the vectors of the client's last
    acked write and last read of *key* — exactly the state needed for
    read-your-writes + monotonic-reads.
    """

    client: str
    floor: Dict[str, VersionVector] = field(default_factory=dict)

    def observe(self, key: str, vv: VersionVector) -> None:
        cur = self.floor.get(key)
        self.floor[key] = vv_merge(cur, vv) if cur else dict(vv)


def _own(state: Value) -> Value:
    """*state* with its list payload duplicated: safe to change in
    place, and no two nodes ever alias the same mutable object."""
    if state is not None and state[0] == "list":
        return ("list", list(state[1]))
    return state


@dataclass
class _Versioned:
    """One replica's copy of a key: the full state plus its vector.
    ``state`` is a :data:`~repro.kvstore.commands.Value`; ``None`` is a
    tombstone (deletes replicate by dominance like any other write, so
    a partitioned stale replica can never resurrect a deleted key)."""

    vv: VersionVector
    state: Value

    def copy(self) -> "_Versioned":
        """An independent replica copy."""
        return _Versioned(vv=dict(self.vv), state=_own(self.state))


#: The reply of a replica that never saw the key (shared: read only).
_NO_COPY = _Versioned(vv={}, state=None)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
#: Ring weight of every member.
VNODES_PER_NODE = 64
#: Member tuples whose ring, slot table and owner table are kept.
MAX_VIEWS = 8


class ReplicatedKVStore:
    """R-way replicated KV over epoch-numbered views.

    Parameters
    ----------
    node_ids:
        Initial members (view epoch 1).
    replicas:
        Replication factor R; quorum is ``R // 2 + 1``.  ``replicas=1``
        **is** the hash-sharded store of §III-E-2: every key lives as a
        single copy on its ring successor, and a view change moves only
        the remapped keys (the commit's anti-entropy pass carries them).
    link_blocked:
        Optional ``f(ranks) -> bool``: is a transfer spanning *ranks*
        crossing a dead link right now?  Wire to
        :meth:`FaultInjector.link_blocked
        <repro.faults.injector.FaultInjector.link_blocked>`.
    on_no_quorum:
        ``"raise"`` (default): a mutation short of quorum raises
        :class:`NoQuorumError` and applies nothing.  ``"degrade"``:
        apply to whatever replicas are reachable (>= 1), emit
        ``kv.write.degraded`` and do **not** record the write as acked
        — the availability-over-consistency mode the chaos harness
        runs the dirty table in.

    Examples
    --------
    >>> kv = ReplicatedKVStore([1, 2, 3], replicas=2)
    >>> kv.set("k", "v")
    >>> kv.get("k")
    'v'
    >>> kv.view.epoch
    1
    >>> kv.propose_view([1, 2, 3, 4])
    2
    >>> kv.commit_view()
    2
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        replicas: int = 3,
        link_blocked: Optional[Callable[[Iterable[NodeId]], bool]] = None,
        on_no_quorum: str = "raise",
    ) -> None:
        if not node_ids:
            raise ValueError("at least one node required")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("duplicate node ids")
        if not isinstance(replicas, Integral):
            raise ValueError(f"replicas must be an integer, got {replicas!r}")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if replicas > len(node_ids):
            raise ValueError(
                f"replicas={replicas} exceeds the {len(node_ids)} "
                f"initial members")
        if on_no_quorum not in ("raise", "degrade"):
            raise ValueError("on_no_quorum must be 'raise' or 'degrade'")
        self.replicas = replicas
        self.quorum = replicas // 2 + 1
        self._link_blocked = link_blocked
        self._on_no_quorum = on_no_quorum
        #: Every node ever seen -> its rank in ``str`` order (and kept
        #: in that order); data survives leaving a view (the elastic
        #: principle: powering down is not a crash).
        self._nodes: Dict[NodeId, int] = {}
        #: ``node -> str(node)``, the name vectors and events use.
        self._names: Dict[NodeId, str] = {}
        #: The only replica storage: ``key -> {node: copy}``.  A key
        #: with no copy left has no entry.
        self._copies: Dict[str, Dict[NodeId, _Versioned]] = {}
        #: ``key -> ring position``: a pure function of the key and the
        #: hash method, so nothing ever invalidates it.
        self._positions: Dict[str, int] = {}
        #: ``key -> owner tuple`` under the committed view, for every
        #: key in ``_positions``.
        self._owners: Dict[str, Tuple[NodeId, ...]] = {}
        #: ``member tuple -> (ring, slot table, owner table)`` of the
        #: views committed lately, most recent last.
        self._views: Dict[Tuple[NodeId, ...], tuple] = {}
        #: The settled keys (see :meth:`_settle`) -> "holds a live
        #: value".
        self._settled: Dict[str, bool] = {}
        self._down: set = set()
        self._epoch = 0
        self._staged: Optional[Tuple[int, Tuple[NodeId, ...]]] = None
        #: Newest acked vector per key — the durability ledger audits
        #: compare replica contents against.
        self._acked: Dict[str, VersionVector] = {}
        self._sessions: Dict[str, Session] = {}
        #: Counters for reports.
        self.stats: Dict[str, int] = {
            "writes_acked": 0, "writes_failed": 0, "writes_degraded": 0,
            "reads": 0, "reads_degraded": 0, "reads_failed": 0,
            "repair_copies": 0, "views_committed": 0,
        }
        # Views are the only membership mechanism, including the first:
        # its commit sets the members, the ring and the view.
        self.propose_view(node_ids)
        self.commit_view()

    # ------------------------------------------------------------------
    # membership: epoch-numbered views
    # ------------------------------------------------------------------
    def _admit(self, node_id: NodeId) -> None:
        if node_id not in self._nodes:
            self._names[node_id] = str(node_id)
            self._nodes = {nid: rank for rank, nid in enumerate(
                sorted([*self._nodes, node_id], key=str))}

    def _build_ring(self, members: Tuple[NodeId, ...]) -> None:
        """The ring over *members*, its original-CH slot table, and
        every known key's owners read from that table in one array
        pass.  Placement is a pure function of (key, member tuple), so
        a member tuple committed before gets its ring, table and owner
        table back, and only keys first seen since it was last
        committed are read (keys only ever join ``_positions``, and
        join the committed view's owner table with it)."""
        for nid in members:
            self._admit(nid)
        view = self._views.pop(members, None)
        if view is None:
            ring = HashRing(dict.fromkeys(members, VNODES_PER_NODE))
            view = (ring, SlotPlacementTable(ring, self.replicas, None), {})
            if len(self._views) >= MAX_VIEWS:
                del self._views[next(iter(self._views))]
        self._views[members] = view
        self._ring, self._table, owners = view
        fresh = list(islice(self._positions, len(owners), None))
        if fresh:
            positions = np.fromiter(map(self._positions.__getitem__, fresh),
                                    dtype=np.uint64, count=len(fresh))
            rows = self._table.gather(
                self._ring.bulk_successor_slots(positions)).servers.tolist()
            owners.update(zip(fresh, map(tuple, rows)))
        self._owners = owners

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def members(self) -> Tuple[NodeId, ...]:
        return self._members

    @property
    def node_ids(self) -> List[NodeId]:
        """Every node ever admitted (sorted), member or not."""
        return list(self._nodes)

    def propose_view(self, members: Sequence[NodeId]) -> int:
        """Stage the next view (epoch + 1).  Ops keep running against
        the committed view until :meth:`commit_view`.  Returns the
        staged epoch."""
        members = tuple(members)
        if not members:
            raise ValueError("a view needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate member in proposed view")
        if len(members) < self.replicas:
            raise ValueError(
                f"view of {len(members)} members cannot hold "
                f"{self.replicas} replicas")
        epoch = self._next_epoch()
        self._staged = (epoch, members)
        if OBS.bus.active:
            OBS.bus.emit("kv.view.propose", epoch=epoch,
                         members=sorted(members, key=str))
        return epoch

    def _next_epoch(self) -> int:
        """Hook: the epoch a new proposal gets (mutants override)."""
        return self._epoch + 1

    def commit_view(self) -> int:
        """Install the staged view: rebuild the ring, run anti-entropy
        so the new replica sets hold the newest state, and emit the
        commit.  Returns the committed epoch."""
        if self._staged is None:
            raise RuntimeError("no proposed view to commit")
        epoch, members = self._staged
        self._staged = None
        self._epoch = epoch
        self._members = members
        old_owners = self._owners
        self._build_ring(members)
        # A settled key whose owners moved is not settled any more; the
        # pass below visits it (and every other unsettled key).
        for key in [key for key in self._settled
                    if self._owners.get(key) != old_owners.get(key)]:
            del self._settled[key]
        self.view = View(epoch=epoch, members=members)
        self.stats["views_committed"] += 1
        if OBS.bus.active:
            OBS.bus.emit("kv.view.commit", epoch=epoch,
                         members=sorted(members, key=str))
        self._anti_entropy_pass(reason="view-commit")
        return epoch

    def change_view(self, members: Sequence[NodeId]) -> int:
        """Convenience: propose + commit in one call."""
        self.propose_view(members)
        return self.commit_view()

    # ------------------------------------------------------------------
    # fault wiring
    # ------------------------------------------------------------------
    def crash_node(self, node_id: NodeId) -> None:
        """*node_id* crashed: local data is gone, the node is down
        until :meth:`repair_node`.  Membership (the view) is
        unchanged — a crash is not a resize."""
        if node_id not in self._nodes:
            raise KeyError(f"unknown node: {node_id!r}")
        emptied = []
        for key, copies in self._copies.items():
            if copies.pop(node_id, None) is not None:
                if copies:
                    self._settle(key)
                else:
                    emptied.append(key)
        for key in emptied:
            del self._copies[key]
            self._settled.pop(key, None)
        self._down.add(node_id)
        if OBS.bus.active:
            OBS.bus.emit("kv.node.crash", node=str(node_id))

    def repair_node(self, node_id: NodeId) -> None:
        """*node_id* is back (empty): re-admit it and immediately
        re-replicate everything it should hold."""
        if node_id not in self._nodes:
            raise KeyError(f"unknown node: {node_id!r}")
        self._down.discard(node_id)
        if OBS.bus.active:
            OBS.bus.emit("kv.node.repair", node=str(node_id))
        self._anti_entropy_pass(reason="node-repair")

    def _reachable(self, node_id: NodeId,
                   coordinator: NodeId) -> bool:
        if node_id in self._down:
            return False
        if (self._link_blocked is not None and node_id != coordinator
                and self._link_blocked((coordinator, node_id))):
            return False
        return True

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _owners_of(self, key: str) -> Tuple[NodeId, ...]:
        """The owner table's entry for *key*: hashed once per store; a
        key first seen mid-view takes one slot lookup, every later view
        reads it in :meth:`_build_ring`'s array pass."""
        owners = self._owners.get(key)
        if owners is None:
            position = self._positions[key] = self._ring.key_position(key)
            owners = self._owners[key] = self._table.lookup(
                self._ring.successor_slot(position)).servers
        return owners

    def replica_set(self, key: str) -> List[NodeId]:
        """The R members owning *key* under the committed view: first
        R distinct members clockwise from the key's hash (the caller
        gets its own list)."""
        return list(self._owners_of(key))

    # ------------------------------------------------------------------
    # the settled set
    # ------------------------------------------------------------------
    def _settle(self, key: str) -> None:
        """Re-check *key* after its copies, its ack or its owners
        changed.  It is settled when it holds exactly R copies, one per
        owner, each at the acked vector, and the R states are all live
        or all tombstones: both passes then have nothing to do for it
        (a mixed key takes the full comparison — equal vectors can
        disagree on the state after degraded writes)."""
        self._settled.pop(key, None)
        copies = self._copies.get(key)
        acked_vv = self._acked.get(key)
        if (copies is None or acked_vv is None
                or len(copies) != self.replicas):
            return
        tombstones = 0
        for nid in self._owners_of(key):
            versioned = copies.get(nid)
            if versioned is None or versioned.vv != acked_vv:
                return
            tombstones += versioned.state is None
        if not tombstones or tombstones == self.replicas:
            self._settled[key] = not tombstones

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session(self, client: str) -> Session:
        """The (auto-created) causal session for *client*."""
        sess = self._sessions.get(client)
        if sess is None:
            sess = Session(client=client)
            self._sessions[client] = sess
        return sess

    # ------------------------------------------------------------------
    # replica plumbing (the mutation-test hook points)
    # ------------------------------------------------------------------
    def _gather(self, key: str) -> Tuple[List[Tuple[NodeId, _Versioned]],
                                         List[NodeId], NodeId]:
        """Poll the replica set: ``(replies, reachable, coordinator)``.
        A reachable replica that has never seen the key replies with an
        empty vector (it can still acknowledge a write)."""
        targets = self._owners.get(key) or self._owners_of(key)
        coordinator = targets[0]
        copies = self._copies.get(key, {})
        down = self._down
        blocked = self._link_blocked
        replies: List[Tuple[NodeId, _Versioned]] = []
        reachable: List[NodeId] = []
        for nid in targets:
            if nid in down or (blocked is not None and nid != coordinator
                               and blocked((coordinator, nid))):
                continue
            reachable.append(nid)
            replies.append((nid, copies.get(nid, _NO_COPY)))
        return replies, reachable, coordinator

    @staticmethod
    def _newest(copies: Iterable[_Versioned]) -> Optional[_Versioned]:
        """The dominant copy: greatest ``_vv_sortkey``, first wins
        ties; ``None`` when there are no copies.  Equal vectors have
        equal sort keys, so the key is built only when two differ."""
        best: Optional[_Versioned] = None
        for versioned in copies:
            if best is None or (
                    versioned.vv != best.vv
                    and _vv_sortkey(versioned.vv) > _vv_sortkey(best.vv)):
                best = versioned
        return best

    def _choose_reply(self, replies: List[Tuple[NodeId, _Versioned]]
                      ) -> _Versioned:
        """The dominant reply (newest vector; deterministic tie-break),
        as :meth:`_newest` picks it.  Mutants override this to serve
        stale data."""
        best = replies[0][1]
        for _nid, versioned in replies:
            if (versioned.vv != best.vv
                    and _vv_sortkey(versioned.vv) > _vv_sortkey(best.vv)):
                best = versioned
        return best

    def _replicate(self, key: str, versioned: _Versioned,
                   targets: Sequence[NodeId]) -> List[NodeId]:
        """Store *versioned* on every target; returns the ack list.
        Mutants override this to drop writes after acking."""
        acked: List[NodeId] = []
        # (_mutate never replicates to nobody: no empty entry is left)
        copies = self._copies.setdefault(key, {})
        for nid in targets:
            copies[nid] = versioned.copy()
            acked.append(nid)
        return acked

    def _record_ack(self, key: str, vv: VersionVector) -> None:
        self._acked[key] = dict(vv)

    def _enforce_floor(self, key: str, vv: VersionVector,
                       session: Optional[Session]) -> None:
        if session is None:
            return
        floor = session.floor.get(key)
        if floor and not vv_dominates(vv, floor):
            raise StaleSessionError(
                f"key {key!r}: reachable replicas are behind client "
                f"{session.client!r}'s causal floor")

    # ------------------------------------------------------------------
    # core quorum ops
    # ------------------------------------------------------------------
    def _mutate(self, key: str, transform: Callable[[Value], Value],
                client: Optional[str] = None) -> Tuple[Any, VersionVector]:
        """Read-newest, transform the full state, replicate it with a
        bumped vector.  Returns ``(pre-transform state, new vector)``.
        """
        replies, reachable, coordinator = self._gather(key)
        session = self._sessions.get(client)
        if session is None and client is not None:
            session = self.session(client)
        need = self.quorum
        # Even degrade mode needs one replica to land the write on.
        if not reachable or (len(reachable) < need
                             and self._on_no_quorum == "raise"):
            self.stats["writes_failed"] += 1
            if OBS.bus.active:
                OBS.bus.emit("kv.write.fail", key=key,
                             client=client, got=len(reachable),
                             need=need, epoch=self._epoch)
            raise NoQuorumError(key, len(reachable), need)
        current = self._choose_reply(replies)
        # Vectors are made key-sorted, so events carry them as they are.
        cnode = self._names[coordinator]
        if cnode in current.vv:
            new_vv = dict(current.vv)
            new_vv[cnode] += 1
        else:
            new_vv = dict(sorted([*current.vv.items(), (cnode, 1)]))
        new_state = transform(current.state)
        acked = self._replicate(
            key, _Versioned(vv=new_vv, state=new_state), reachable)
        quorum_met = len(acked) >= need
        if quorum_met:
            self._record_ack(key, new_vv)
            self.stats["writes_acked"] += 1
        else:
            # Sub-quorum, degrade mode: applied but not durable-acked.
            self.stats["writes_degraded"] += 1
        if session is not None:
            session.observe(key, new_vv)
        if OBS.bus.active:
            acks = sorted([self._names[nid] for nid in acked])
            if quorum_met:
                OBS.bus.emit("kv.write.ack", key=key, client=client,
                             vv=new_vv, acks=acks, epoch=self._epoch)
            else:
                OBS.bus.emit("kv.write.degraded", key=key, client=client,
                             vv=new_vv, acks=acks, need=need,
                             epoch=self._epoch)
        self._settle(key)
        return current.state, new_vv

    def _read(self, key: str, client: Optional[str] = None
              ) -> Tuple[Value, VersionVector, bool]:
        """Quorum read: ``(state, vector, degraded)``.  Serves from a
        single replica only as a flagged degraded read, and never
        returns data older than the client session's floor."""
        replies, _reachable, _coordinator = self._gather(key)
        session = self._sessions.get(client)
        if session is None and client is not None:
            session = self.session(client)
        need = self.quorum
        if not replies:
            self.stats["reads_failed"] += 1
            if OBS.bus.active:
                OBS.bus.emit("kv.read.fail", key=key, client=client,
                             got=0, need=need, epoch=self._epoch)
            raise NoQuorumError(key, 0, need)
        best = self._choose_reply(replies)
        vv = best.vv
        # A read is degraded when it falls short of a quorum, or when
        # the newest reachable copy is provably behind the durability
        # ledger (possible when crashes race a view change: the owners
        # holding the newest copy are all dark).  Either way the reply
        # is served honestly flagged, never passed off as consistent.
        acked = self._acked.get(key)
        degraded = (len(replies) < need
                    or (acked is not None and not vv_dominates(vv, acked)))
        try:
            self._enforce_floor(key, vv, session)
        except StaleSessionError:
            self.stats["reads_failed"] += 1
            if OBS.bus.active:
                OBS.bus.emit("kv.read.fail", key=key, client=client,
                             got=len(replies), need=need,
                             reason="stale", epoch=self._epoch)
            raise
        # Read repair: bring stale reachable replicas up to the reply
        # we are about to serve (keeps under-replication windows short
        # and deterministic).
        repaired = 0
        for nid, versioned in replies:
            if versioned.vv != vv:
                self._copies[key][nid] = best.copy()
                repaired += 1
        if repaired:
            self.stats["repair_copies"] += repaired
            self._settle(key)
        self.stats["reads"] += 1
        if degraded:
            self.stats["reads_degraded"] += 1
        if session is not None:
            session.observe(key, vv)
        if OBS.bus.active:
            OBS.bus.emit("kv.read", key=key, client=client, vv=vv,
                         replies=len(replies), degraded=degraded,
                         epoch=self._epoch)
        return best.state, vv, degraded

    # ------------------------------------------------------------------
    # anti-entropy
    # ------------------------------------------------------------------
    def _anti_entropy_pass(self, reason: str = "manual") -> int:
        """Re-replicate every key that is not settled toward its
        committed-view replica set: each reachable owner receives the
        newest known copy (tombstones included, so deletes propagate),
        and reachable non-owners drop theirs.  Returns the number of
        copies written.  Mutants override this to skip repair."""
        copied = 0
        dropped = 0
        rank = self._nodes.__getitem__
        for key in sorted(self._copies.keys() - self._settled.keys()):
            copies = self._copies[key]
            owners = self._owners_of(key)
            holders = sorted(copies, key=rank)
            best = self._newest(copies[nid] for nid in holders)
            coordinator = owners[0]
            for nid in owners:
                if not self._reachable(nid, coordinator):
                    continue
                have = copies.get(nid)
                if have is None or have.vv != best.vv:
                    copies[nid] = best.copy()
                    copied += 1
            for nid in holders:
                if nid in owners or nid in self._down:
                    continue
                # The old owner hands off only once an in-view replica
                # holds a copy at least as new as its own.
                if any(o in copies
                       and vv_dominates(copies[o].vv, copies[nid].vv)
                       for o in owners):
                    del copies[nid]
                    dropped += 1
            self._settle(key)
        self.stats["repair_copies"] += copied
        if OBS.bus.active:
            OBS.bus.emit("kv.repair", epoch=self._epoch, reason=reason,
                         copied=copied, dropped=dropped)
        return copied

    def anti_entropy(self) -> int:
        """Public entry point for a manual repair pass."""
        return self._anti_entropy_pass(reason="manual")

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    def audit(self, label: str = "periodic") -> Dict[str, object]:
        """Compare the durability ledger against replica contents.

        * ``lost_acked`` — acked keys whose newest acked vector is on
          **no** node at all (an acknowledged write has been lost);
        * ``under_replicated`` — live acked keys where fewer than R
          of the current replica-set members hold a copy at least as
          new as the newest ack.
        """
        lost = 0
        under = 0
        # A settled key is not lost and has R holders: only the live
        # ones are counted, and only the unsettled rest is compared.
        live_keys = sum(self._settled.values())
        rank = self._nodes.__getitem__
        for key in sorted(self._acked.keys() - self._settled.keys()):
            acked_vv = self._acked[key]
            copies = self._copies.get(key, {})
            newest = self._newest(copies[nid]
                                  for nid in sorted(copies, key=rank))
            if newest is None or not vv_dominates(newest.vv, acked_vv):
                lost += 1
                continue
            if newest.state is None:
                continue               # deleted: nothing to replicate
            live_keys += 1
            holders = 0
            for nid in self._owners_of(key):
                versioned = copies.get(nid)
                if versioned is not None and (
                        versioned.vv == acked_vv
                        or vv_dominates(versioned.vv, acked_vv)):
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

    # ------------------------------------------------------------------
    # Redis-style command surface: the command table of
    # repro.kvstore.commands, applied through a quorum round
    # ------------------------------------------------------------------
    def _write(self, command: Callable[..., Tuple[Value, Any]], key: str,
               client: Optional[str], *args: Any) -> Any:
        """One mutator through :meth:`_mutate`, on a private copy of
        the newest state; a :class:`WrongTypeError` aborts the round
        before anything replicates."""
        reply = None

        def transform(state: Value) -> Value:
            nonlocal reply
            state, reply = command(_own(state), key, *args)
            return state

        self._mutate(key, transform, client)
        return reply

    def set(self, key: str, value: Any, client: Optional[str] = None
            ) -> None:
        self._write(commands.set, key, client, value)

    def get(self, key: str, client: Optional[str] = None) -> Any:
        return commands.get(self._read(key, client)[0], key)

    def incr(self, key: str, amount: int = 1,
             client: Optional[str] = None) -> int:
        return self._write(commands.incr, key, client, amount)

    def delete(self, key: str, client: Optional[str] = None) -> bool:
        """Replicates a tombstone (the command's ``None``)."""
        return self._write(commands.delete, key, client)

    def exists(self, key: str, client: Optional[str] = None) -> bool:
        return commands.exists(self._read(key, client)[0], key)

    # -- lists ---------------------------------------------------------
    def rpush(self, key: str, *values: Any,
              client: Optional[str] = None) -> int:
        commands.require_values("rpush", values)  # not a failed write
        return self._write(commands.rpush, key, client, *values)

    def lpush(self, key: str, *values: Any,
              client: Optional[str] = None) -> int:
        commands.require_values("lpush", values)  # not a failed write
        return self._write(commands.lpush, key, client, *values)

    def lpop(self, key: str, client: Optional[str] = None) -> Any:
        return self._write(commands.lpop, key, client)

    def rpop(self, key: str, client: Optional[str] = None) -> Any:
        return self._write(commands.rpop, key, client)

    def lrem(self, key: str, count: int, value: Any,
             client: Optional[str] = None) -> int:
        return self._write(commands.lrem, key, client, count, value)

    def llen(self, key: str, client: Optional[str] = None) -> int:
        return commands.llen(self._read(key, client)[0], key)

    def lindex(self, key: str, index: int,
               client: Optional[str] = None) -> Any:
        return commands.lindex(self._read(key, client)[0], key, index)

    def lrange(self, key: str, start: int, stop: int,
               client: Optional[str] = None) -> List[Any]:
        return commands.lrange(self._read(key, client)[0], key, start, stop)

    # -- fan-out -------------------------------------------------------
    def keys(self) -> List[str]:
        """Every live key (some node holds a copy that is not a
        tombstone), sorted — a deterministic fan-out, independent of
        the order nodes were admitted in."""
        return sorted(key for key, copies in self._copies.items()
                      if any(versioned.state is not None
                             for versioned in copies.values()))

    def dbsize(self) -> int:
        return len(self.keys())

    def flushall(self) -> None:
        """Admin wipe: every node, every version, the ledger."""
        self._copies.clear()
        self._acked.clear()
        self._settled.clear()
        for sess in self._sessions.values():
            sess.floor.clear()
