"""Micro-benchmarks of the hot paths (statistical, multi-round).

Not a paper artefact — these guard the implementation's own
performance: object placement is the operation every IO issues, ring
construction happens per re-weighting, and the slot-table kernel's
scalar/bulk locate paths are what every whole-cluster sweep leans on.
To A/B two trees, save a run with ``--benchmark-save`` and compare the
other against it with ``--benchmark-compare`` (README "Tests and
benchmarks").
"""

import itertools

import numpy as np
import pytest

from repro.core.elastic import ElasticConsistentHash
from repro.core.placement import place_original
from repro.hashring.hashing import bulk_hash, bulk_hash_concat, hash64


@pytest.fixture(scope="module")
def ech():
    return ElasticConsistentHash(n=10, replicas=2, B=10_000)


def bench_primary_placement(benchmark, ech):
    """Algorithm 1, one fresh object against a built slot table (the
    steady-state per-IO cost: hash + bisect + table row).  The first
    lookups of a membership version also pay the table build:
    bench_locate_scalar_cold, bench_locate_bulk_cold.  The reference
    ring walk is benched by bench_original_placement."""
    ech.locate_bulk(np.arange(200_000))    # build the slot table
    counter = iter(range(10**6, 10**9))    # fresh oids, warm slots

    def place():
        return ech.locate(next(counter))

    result = benchmark(place)
    assert len(result.servers) == 2


def bench_original_placement(benchmark, ech):
    counter = iter(range(10**9))

    def place():
        return place_original(ech.ring, next(counter), 2)

    result = benchmark(place)
    assert len(result.servers) == 2


@pytest.mark.parametrize("n", [10, 1000])
def bench_ring_construction(benchmark, n):
    """Build + sort an equal-work ring (per re-weighting): 24k vnodes
    over 10 servers, or 29k over the 1 000 of the fig7 replay — every
    server's vnodes in one array pass either way."""
    def build():
        ech = ElasticConsistentHash(n=n, replicas=2, B=10_000)
        return ech.ring.num_vnodes

    vnodes = benchmark(build)
    assert vnodes > 20_000


def bench_bulk_successor(benchmark, ech):
    """Vectorised successor-slot lookup for 100k keys — the kernel's
    ``locate_bulk`` entry point."""
    positions = bulk_hash(range(100_000))

    def lookup():
        return ech.ring.bulk_successor_slots(positions)

    slots = benchmark(lookup)
    assert slots.shape == (100_000,)


def bench_locate_settled(benchmark, ech):
    """Repeated ``locate`` against a settled version: the oid→slot and
    slot→placement caches are hot, so this is the kernel's scalar
    fast path (compare with bench_primary_placement, which pays the
    hash + bisect on every fresh oid)."""
    oids = itertools.cycle(range(10_000))
    for oid in range(10_000):      # warm both cache layers
        ech.locate(oid)

    def place():
        return ech.locate(next(oids))

    result = benchmark(place)
    assert len(result.servers) == 2


def bench_locate_bulk(benchmark, ech):
    """100k-object bulk placement through a built slot table (the
    whole-cluster-sweep primitive, second sweep onward): bulk_hash +
    one searchsorted + the table gather.  The first sweep of a version
    is bench_locate_bulk_cold."""
    oids = np.arange(100_000, dtype=np.int64)
    ech.locate_bulk(oids)          # build the version's table

    def place():
        return ech.locate_bulk(oids)

    bulk = benchmark(place)
    assert len(bulk) == 100_000 and bulk.all_ok


def _resized(k):
    """A fresh facade (n = 10) resized to *k*: no active set of it has a
    slot table and no oid a memoised slot.  Slot tables are kept per
    active set, so the cold benches build a new facade each round
    rather than cycling sizes, which would find the tables of the first
    two rounds again."""
    ech = ElasticConsistentHash(n=10, replicas=2, B=10_000)
    ech.set_active(k)
    return ech


def bench_locate_bulk_cold(benchmark):
    """The same 100k-object sweep against an active set nothing has
    placed yet: the sweep builds the set's whole slot table (one array
    pass over all 24k slots) and then gathers from it — what the first
    whole-catalog pass after a resize to a new set costs."""
    oids = np.arange(100_000, dtype=np.int64)
    sizes = itertools.cycle((6, 8))

    def resize():
        return (_resized(next(sizes)),), {}

    def place(ech):
        return ech.locate_bulk(oids)

    bulk = benchmark.pedantic(place, setup=resize, rounds=40)
    assert len(bulk) == 100_000 and bulk.all_ok


def bench_locate_scalar_cold(benchmark):
    """5 000 scalar locates of never-seen oids against an active set
    nothing has placed yet — the shape ``repro serve`` and the fig7
    replay issue after a resize to a new set: one whole-table build,
    then per oid hash + bisect + the first materialisation of its
    slot's result (~4.5k distinct slots of 24k)."""
    sizes = itertools.cycle((6, 8))

    def resize():
        return (_resized(next(sizes)), range(5_000)), {}

    def place(ech, oids):
        return [ech.locate(oid) for oid in oids]

    results = benchmark.pedantic(place, setup=resize, rounds=40)
    assert len(results) == 5_000


def bench_locate_scalar_prehashed(benchmark):
    """bench_locate_scalar_cold's 5 000 fresh oids, hashed first by one
    ``prehash`` (inside the timed region) — what a three-phase phase
    or a serve oid block pays: one array pass, then per oid two
    lookups and the slot's first materialisation."""
    sizes = itertools.cycle((6, 8))

    def resize():
        return (_resized(next(sizes)), range(5_000)), {}

    def place(ech, oids):
        ech.prehash(oids)
        return [ech.locate(oid) for oid in oids]

    results = benchmark.pedantic(place, setup=resize, rounds=40)
    assert len(results) == 5_000


def bench_resize_schedule_revisits(benchmark):
    """``place_mix``'s resize schedule on a fresh n = 100, r = 3 facade:
    ``set_active`` 80, 60, 40, 60, 80, 100, each followed by a
    ``locate_bulk`` of one fixed 60k-key catalog.  The schedule has six
    versions but four active sets: the second 60 and 80 and the return
    to 100 find the table of an earlier version with their set."""
    catalog = np.random.default_rng(7).integers(1, 2 ** 40, size=60_000)

    def fresh():
        return (ElasticConsistentHash(n=100, replicas=3),), {}

    def schedule(ech):
        for k in (80, 60, 40, 60, 80, 100):
            ech.set_active(k)
            bulk = ech.locate_bulk(catalog)
        return bulk

    bulk = benchmark.pedantic(schedule, setup=fresh, rounds=15)
    assert len(bulk) == 60_000 and bulk.all_ok


def bench_locate_loop_10k(benchmark, ech):
    """The same sweep as bench_locate_bulk, issued as a per-object
    Python loop (10k objects; scale ×10 to compare against the 100k
    bulk number)."""
    oids = list(range(10_000))
    for oid in oids:
        ech.locate(oid)

    def place():
        return [ech.locate(oid) for oid in oids]

    results = benchmark(place)
    assert len(results) == 10_000


def bench_trace_replay_throughput(benchmark):
    """Trace-replay proxy: bulk-place a 100k-object catalog against
    every version of a resize history, all five tables settled
    beforehand — the dominant inner loop of the CC-a/CC-b replays
    (fig8/fig9) once each version has been swept once.  Throughput =
    placements/sec is ``5 * 100_000 / median``."""
    ech = ElasticConsistentHash(n=10, replicas=2, B=10_000)
    for k in (8, 6, 9, 10):
        ech.set_active(k)
    oids = np.arange(100_000, dtype=np.int64)
    versions = range(1, ech.current_version + 1)
    for v in versions:             # settle every version's table
        ech.locate_bulk(oids, v)

    def replay():
        placed = 0
        for v in versions:
            placed += len(ech.locate_bulk(oids, v))
        return placed

    placed = benchmark(replay)
    assert placed == 5 * 100_000


def bench_dirty_table_insert(benchmark):
    """Dirty-entry logging throughput (the §III-E-2 write-path tax)."""
    from repro.core.dirty_table import DirtyTable
    table = DirtyTable()
    counter = iter(range(10**9))

    def insert():
        table.insert(next(counter), 1)

    benchmark(insert)


def bench_cluster_write_tick(benchmark):
    """One tick's batch of 1 000 fresh writes on an n = 1000 cluster
    shrunk to 600 servers, so every write is offloaded and dirty-
    tracked: one placement gather, then the per-object bookkeeping
    (header stamps, dirty insert, object table).  The oids are
    hashed into the oid->slot memo untimed, as the three-phase client
    does before a phase."""
    from repro.cluster.cluster import ElasticCluster
    cluster = ElasticCluster(n=1000, replicas=2)
    cluster.resize(600)
    firsts = itertools.count(1, 1000)
    ticks = 0

    def next_tick():
        nonlocal ticks
        ticks += 1
        first = next(firsts)
        oids = range(first, first + 1000)
        cluster.prehash(oids)
        return (oids,), {}

    benchmark.pedantic(cluster.write_many, setup=next_tick, rounds=30)
    # One round when timing is disabled, 30 under --benchmark-only.
    assert ticks >= 1
    assert len(cluster.ech.dirty) == len(cluster.objects) == 1000 * ticks


# ----------------------------------------------------------------------
# serving's deterministic draws (what a serve_resize rep takes ~124 k of)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", ["block_4096", "grid_200x20"])
def bench_bulk_hash_concat(benchmark, shape):
    """One draw block: 4 096 open-loop ordinals between a prefix and a
    suffix, or 200 closed-loop clients x 20 ordinals."""
    if shape == "block_4096":
        parts = ("7:open:", np.arange(4096, 8192), ":replica")
        first = "7:open:4096:replica"
    else:
        parts = ("7:closed:", np.arange(200)[:, None], ":",
                 np.arange(100, 120)[None, :], ":replica")
        first = "7:closed:0:100:replica"
    block = benchmark(bulk_hash_concat, *parts)
    assert block.size in (4096, 4000)
    assert int(block.flat[0]) == hash64(first)


def bench_serve_request_draws(benchmark):
    """The three draws one read request takes from its handle (write or
    read, which oid, which replica), blocks already computed — against
    three ~18-byte scalar ``hash64`` folds before."""
    from repro.serving.clients import Draw, DrawStream
    stream = DrawStream("7:closed:", 200)
    for suffix in (":rw", ":oid", ":replica"):
        stream.hash(suffix, 0)
    ordinals = itertools.cycle(range(20))

    def draws():
        key = Draw(stream, next(ordinals), 137)
        return key.unit(":rw"), key.hash(":oid"), key.hash(":replica")

    rw, oid, _ = benchmark(draws)
    assert 0.0 < rw < 1.0 and 0 <= oid < 2 ** 64


# ----------------------------------------------------------------------
# replicated KV: the whole-keyspace passes (what a kv_churn rep repeats
# 23 + 61 times)
# ----------------------------------------------------------------------
def _kv_in_sync(nodes=15, replicas=3, keys=900):
    """The ``kv_churn`` shape — every key acked and fully replicated."""
    from repro.kvstore.replicated import ReplicatedKVStore
    store = ReplicatedKVStore(list(range(1, nodes + 1)), replicas=replicas)
    for i in range(keys):
        store.set(f"k{i:03d}", i)
    return store


def bench_kv_anti_entropy_in_sync(benchmark):
    """One anti-entropy pass over 900 keys that are all settled: the
    pass visits none of them (78 % of the keys a kv_churn pass used to
    visit, 96 % on chaos_n30)."""
    store = _kv_in_sync()
    copied = benchmark(store.anti_entropy)
    assert copied == 0


def bench_kv_audit_in_sync(benchmark):
    """One ledger-vs-replica audit of 900 acked keys, all settled: a
    sum over the settled set, no key visited."""
    store = _kv_in_sync()
    report = benchmark(store.audit)
    assert (report["keys"], report["lost_acked"],
            report["under_replicated"]) == (900, 0, 0)


def bench_kv_view_commit_one_member(benchmark):
    """Commit a view that retires one of 15 members: the ~R/N of the
    900 keys that lose an owner are the only ones the commit's pass
    visits and re-replicates (re-admitting the member between rounds
    is untimed).  Every round commits the same member tuple, so past
    the first it times the cached commit: the view's ring, slot table
    and owners come back from the store's view cache, with no key to
    read, the way ``kv_churn``'s n -> n-1 -> n churn commits."""
    store = _kv_in_sync()
    members = list(store.members)

    def readmit_and_propose():
        store.change_view(members)
        store.propose_view(members[:-1])

    benchmark.pedantic(store.commit_view, setup=readmit_and_propose,
                       rounds=30)
    readmit_and_propose()
    before = store.stats["repair_copies"]
    store.commit_view()
    moved = store.stats["repair_copies"] - before
    assert 0.5 * 900 * 3 / 15 < moved < 2 * 900 * 3 / 15


def _kv_session_ops(store, op):
    """*op* of one client session over the 900 keys, in turn."""
    keys = itertools.cycle([f"k{i:03d}" for i in range(900)])
    return lambda: op(next(keys), client="c1")


def bench_kv_quorum_write(benchmark):
    """One quorum SET by a client session on the ``kv_churn`` shape
    (15 nodes, R = 3, 900 acked keys): gather the three replicas, pick
    the newest, bump the coordinator's entry, store three copies, ack,
    observe the session floor and re-settle the key."""
    store = _kv_in_sync()
    benchmark(_kv_session_ops(store, lambda k, client: store.set(
        k, "v", client=client)))
    assert store.stats["writes_failed"] == 0


def bench_kv_quorum_read(benchmark):
    """One quorum GET by a client session on the same store: gather,
    pick the newest of three equal replies, check the ledger and the
    session floor (no repair: every replica is current)."""
    store = _kv_in_sync()
    benchmark(_kv_session_ops(store, store.get))
    assert store.stats["reads_failed"] == store.stats["repair_copies"] == 0
