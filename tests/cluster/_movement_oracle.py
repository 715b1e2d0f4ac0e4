"""A first-principles oracle for the cluster's five data-movement rules.

The product states each rule once (a planner) and executes it through
one applier, so "what the planner says equals what the mutator does" is
true by construction and proves nothing.  This module re-derives every
rule the slow way — a scalar ``locate`` per object against a
``holder_index()`` snapshot, an independently built ring for the
original-CH rules — and :func:`check_rule` holds the product to it:

* planning mutates nothing (:func:`snapshot` equal before and after);
* the plan's moves are the oracle's, object for object, in order;
* applying changes the holder index by exactly those moves;
* bytes returned == ``plan.total_bytes`` == the oracle's count.

A *move* is ``(oid, bytes per copy, ranks receiving a copy, ranks
dropping theirs)``; objects with nothing to do are left out.
"""

from repro.cluster.cluster import ElasticCluster
from repro.core.placement import place_original
from repro.hashring.ring import HashRing


def snapshot(cluster):
    """Everything a planner must leave alone."""
    snap = {"holders": dict(cluster.holder_index()),
            "headers": [(o.oid, o.size, o.version, o.dirty)
                        for o in cluster.catalog],
            "power": {r: s.is_on for r, s in cluster.servers.items()}}
    if isinstance(cluster, ElasticCluster):
        ech = cluster.ech
        snap.update(version=ech.current_version,
                    dirty=ech.dirty.entries(),
                    location_version=dict(ech.location_version),
                    last_written=dict(ech.last_written),
                    unverified=set(cluster.unverified_ranks),
                    lost=list(cluster.lost_objects))
    else:
        snap.update(members=cluster.members)
    return snap


def _move(oid, size, holders, target, recopy=()):
    copies = frozenset(r for r in target if r not in holders or r in recopy)
    drops = frozenset(holders) - frozenset(target)
    return (oid, size, copies, drops)


def _needed(moves):
    return [m for m in moves if m[2] or m[3]]


# ----------------------------------------------------------------------
# the five rules, from scalar placement and a holder snapshot
# ----------------------------------------------------------------------
def expected_full(cluster):
    """§V-B "primary+full": every object mapped onto a just-re-powered
    rank is re-copied there, whether or not the payload is in place."""
    holders = cluster.holder_index()
    unverified = cluster.unverified_ranks
    moves = []
    for obj in cluster.catalog:
        target = cluster.ech.locate(obj.oid).servers
        if unverified.intersection(target):
            moves.append(_move(obj.oid, obj.size, holders.get(obj.oid, ()),
                               target, recopy=unverified))
    return _needed(moves)


def expected_crash(cluster, work):
    """§IV: each lost replica is re-made at the current placement from
    a survivor; returns ``(moves, oids with no survivor)``."""
    holders = cluster.holder_index()
    moves, gone = [], []
    for oid, size in work.lost.items():
        if not holders.get(oid):
            gone.append(oid)
            continue
        try:
            target = cluster.ech.locate(oid).servers
        except LookupError:             # fewer active servers than r
            target = tuple(cluster.active_ranks())
        moves.append(_move(oid, size, holders[oid], target))
    return _needed(moves), gone


def expected_selective(cluster):
    """Algorithm 2 over the whole dirty table, in fetch order.  The
    pass moves an object's replicas to the current placement once:
    the header's location version advances with the move, so a second
    entry for the object (a write, then a crash) finds them there."""
    ech = cluster.ech
    moves = []
    location_version = dict(ech.location_version)
    for entry in ech.dirty.entries():
        if ech.last_written.get(entry.oid, entry.version) > entry.version:
            continue                                        # stale
        if ech.num_active <= ech.history.num_active(entry.version):
            continue                                        # line 6
        came_from = location_version.get(entry.oid, entry.version)
        location_version[entry.oid] = ech.current_version
        old = ech.locate(entry.oid, came_from).servers
        new = ech.locate(entry.oid).servers
        obj = cluster.catalog.get(entry.oid)
        size = obj.size if obj is not None else 4 * 1024 * 1024
        moves.append((entry.oid, size, frozenset(new) - frozenset(old),
                      frozenset(old) - frozenset(new)))
    return _needed(moves)


def _ring_of(cluster, members):
    ring = HashRing()
    for rank in members:
        ring.add_server(rank, weight=cluster.vnodes_per_server)
    return ring


def expected_addition(cluster, ranks):
    """§II-C: the joining servers are assumed empty, every object
    settles on its placement over the enlarged ring."""
    ring = _ring_of(cluster, [*cluster.members, *ranks])
    holders = cluster.holder_index()
    return _needed(
        _move(obj.oid, obj.size, holders.get(obj.oid, ()),
              place_original(ring, obj.oid, cluster.replicas).servers)
        for obj in cluster.catalog)


def expected_departure(cluster, rank):
    """§II-C: everything the leaving server holds is re-replicated to
    its placement over the ring without it."""
    ring = _ring_of(cluster, [r for r in cluster.members if r != rank])
    holders = cluster.holder_index()
    srv = cluster.servers[rank]
    return _needed(
        _move(oid, srv.replica_size(oid), holders[oid],
              place_original(ring, oid, cluster.replicas).servers)
        for oid in srv.replicas())


# ----------------------------------------------------------------------
# holding the product to it
# ----------------------------------------------------------------------
def moves_of(tasks):
    return _needed((t.oid, t.size, frozenset(t.moved_to),
                    frozenset(t.dropped_from)) for t in tasks)


def bytes_of(moves):
    return sum(size * len(copies) for _oid, size, copies, _drops in moves)


def plan_purely(cluster, planner, *args):
    """Run *planner* and insist nothing observable changed."""
    before = snapshot(cluster)
    plan = planner(*args)
    assert snapshot(cluster) == before, "planning mutated the cluster"
    return plan


def holders_after(before, moves):
    """The holder index *moves* must leave behind."""
    after = dict(before)
    for oid, _size, copies, drops in moves:
        left = (set(after.get(oid, ())) | copies) - drops
        if left:
            after[oid] = tuple(sorted(left))
        else:
            after.pop(oid, None)
    return after


def check_rule(cluster, plan, expected, apply, tolerate=()):
    """*plan* is the oracle's *expected* moves; *apply* (returning the
    bytes it moved) changes the holder index by exactly them — unless
    it raises one of *tolerate* half-way."""
    assert moves_of(plan.tasks) == expected
    assert plan.total_bytes == bytes_of(expected)
    before = dict(cluster.holder_index())
    try:
        moved = apply()
    except tolerate:
        return
    assert moved == plan.total_bytes
    assert dict(cluster.holder_index()) == holders_after(before, expected)
