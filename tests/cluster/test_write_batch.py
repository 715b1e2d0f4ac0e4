"""Generated differential: the batch write path against the per-object
bodies it replaced.

``ElasticCluster.write_many`` / ``OriginalCHCluster.write_many`` and
``ElasticConsistentHash.record_writes`` place a batch with one gather
of slot-table rows and do its bookkeeping in one loop.  The oracle is the per-object ``write`` / ``record_write``
/ ``insert`` bodies as they were before the batch, kept below verbatim
(modulo ``self``), landing on the bookkeeping the object table replaced
(``_reference_table``): a batch on the oracle side is a loop of single
writes that stops at the first raise.

Hypothesis generates one history — batches of fresh, rewritten and
repeated oids with sizes that change between writes; resizes, crashes
and repairs (departures and additions on the baseline) between them;
servers small enough to fill partway through a batch; memberships with
fewer than r servers up; dirty inserts at a version behind the table —
and plays it once through the product and once through the oracle,
each from a fresh observability state.  After every step the two must
agree on every object's header size and holders, every rank's replicas
in landing order, used bytes and replica counts, power states, the
dirty table, the object-header versions, the metrics snapshot, the
events on a ring-buffer bus, the return value and the exception (type
and message).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import CapacityExceeded, ElasticCluster, OriginalCHCluster
from repro.core.dirty_table import DirtyEntry, DirtyTable
from repro.kvstore.replicated import ReplicatedKVStore
from repro.kvstore.store import KVStore
from repro.obs.runtime import OBS
from repro.obs.trace import RingBufferSink

from . import _reference_table

N = 6
OIDS = st.integers(min_value=0, max_value=24)
SIZES = st.sampled_from([0, 1, 3, 8])
RANKS = st.integers(min_value=1, max_value=N)


# ----------------------------------------------------------------------
# the oracle: the per-object bodies the batch replaced
# ----------------------------------------------------------------------
def oracle_insert(table, oid, version):
    """``DirtyTable.insert`` before the batch."""
    if version < table._last_version:
        # An out-of-order version would silently break fetch order.
        raise ValueError(
            f"dirty insert version went backwards: {version} < "
            f"{table._last_version}")
    if table.contains(oid, version):
        return False
    table._kv.rpush(table._key(oid),
                    DirtyEntry(version=version, oid=oid))
    table._count += 1
    table._index.setdefault(oid, set()).add(version)
    table._last_version = max(table._last_version, version)
    table._insert_counter.inc()
    if OBS.bus.active:
        OBS.bus.emit("dirty.insert", oid=oid, version=version)
    return True


def oracle_record_write(ech, oid):
    """``ElasticConsistentHash.record_write`` before the batch."""
    placement = ech.locate(oid)
    version = ech.current_version
    ech.last_written[oid] = version
    ech.location_version[oid] = version
    if not ech.is_full_power:
        oracle_insert(ech.dirty, oid, version)
        OBS.metrics.inc("core.offloaded_writes")
    OBS.metrics.inc("core.writes")
    return placement


def oracle_write(cl, oid, size):
    """``ElasticCluster.write`` / ``OriginalCHCluster.write`` before
    the batch; ``cl.objects.write`` is the reference's catalog header,
    replica stores and surplus drop."""
    if isinstance(cl, OriginalCHCluster):
        placement = cl.placement(oid)
        cl.objects.write(oid, size, placement.servers)
        return placement
    placement = oracle_record_write(cl.ech, oid)
    cl.objects.write(oid, size, placement.servers)
    OBS.metrics.inc("cluster.writes")
    OBS.metrics.inc("cluster.bytes_written", size)
    return placement


def _rows(placements):
    return [list(p.servers) for p in placements]


def _loop(body, oids):
    """A batch as a loop of single calls: stops at the first raise."""
    out = []
    for oid in oids:
        out.append(body(oid))
    return out


# ----------------------------------------------------------------------
# one history, played through either side
# ----------------------------------------------------------------------
def apply(cl, op, batch):
    """Run *op* on *cl*; the product side when *batch*, else the
    oracle.  Returns what the op returned."""
    kind, *args = op
    ech = getattr(cl, "ech", None)
    if kind == "write_many":
        oids, size = args
        if batch:
            return cl.write_many(oids, size)
        return _rows(_loop(lambda o: oracle_write(cl, o, size), oids))
    if kind == "write":
        oid, size = args
        return cl.write(oid, size) if batch else oracle_write(cl, oid, size)
    if kind == "record_writes":
        (oids,) = args
        if batch:
            return ech.record_writes(oids)
        return _rows(_loop(lambda o: oracle_record_write(ech, o), oids))
    if kind == "record_write":
        (oid,) = args
        if batch:
            return ech.record_write(oid)
        return oracle_record_write(ech, oid)
    if kind == "insert":
        oid, ahead = args
        version = ech.current_version + ahead
        if batch:
            return ech.dirty.insert(oid, version)
        return oracle_insert(ech.dirty, oid, version)
    # Membership changes run the same code on both sides.
    if kind == "resize":
        return cl.resize(args[0])
    if kind == "fail":
        return cl.fail_server(args[0])
    if kind == "repair":
        return cl.repair_server(args[0])
    if kind == "remove":
        return cl.remove_server(args[0])
    if kind == "add":
        return cl.add_server(args[0])
    raise AssertionError(kind)


def observe(cl, sink):
    """Everything a write may touch."""
    state = _reference_table.observe(cl)
    state["total_bytes"] = sum(size for _, size in cl.objects.items())
    state["power"] = {rank: srv.is_on for rank, srv in cl.servers.items()}
    ech = getattr(cl, "ech", None)
    if ech is not None:
        state["last_written"] = dict(ech.last_written)
        state["location_version"] = dict(ech.location_version)
        state["dirty"] = (len(ech.dirty), ech.dirty._last_version,
                          {oid: sorted(v)
                           for oid, v in ech.dirty._index.items()},
                          ech.dirty.entries())
    state["metrics"] = OBS.metrics.snapshot()
    state["events"] = sink.events()
    sink.clear()
    return state


def build(setup, batch):
    """The product cluster, or with *batch* False one on the
    reference bookkeeping."""
    flavour, replicas, capacity, backend = setup

    def make(cls, *args, **kwargs):
        if batch:
            return cls(*args, **kwargs)
        return _reference_table.reference_cluster(cls, *args, **kwargs)

    capacities = None if capacity is None else [capacity] * N
    if flavour == "original":
        cl = make(OriginalCHCluster, N, replicas, vnodes_per_server=24)
        for server in cl.servers.values():
            server.capacity_bytes = capacity
        return cl
    kv = (KVStore() if backend == "kv"
          else ReplicatedKVStore([1, 2, 3], replicas=2))
    return make(ElasticCluster, N, replicas, B=240, capacities=capacities,
                dirty_table=DirtyTable(kv))


def play(setup, ops, batch):
    """One observation per step (plus the initial state)."""
    OBS.reset()
    sink = OBS.bus.attach(RingBufferSink(capacity=100_000))
    try:
        cl = build(setup, batch)
        steps = [observe(cl, sink)]
        for op in ops:
            try:
                out = ("ok", apply(cl, op, batch))
            except (LookupError, ValueError, RuntimeError) as exc:
                out = ("raised", type(exc).__name__, str(exc))
            steps.append((op, out, observe(cl, sink)))
        return steps
    finally:
        OBS.reset()


# ----------------------------------------------------------------------
# generated histories
# ----------------------------------------------------------------------
BATCHES = st.lists(OIDS, max_size=8)
COMMON = [
    st.tuples(st.just("write_many"), BATCHES, SIZES),
    st.tuples(st.just("write_many"), BATCHES, SIZES),
    st.tuples(st.just("write"), OIDS, SIZES),
]
ELASTIC_OPS = st.one_of(
    *COMMON,
    st.tuples(st.just("record_writes"), BATCHES),
    st.tuples(st.just("record_write"), OIDS),
    st.tuples(st.just("insert"), OIDS, st.integers(min_value=0,
                                                   max_value=2)),
    st.tuples(st.just("resize"), st.integers(min_value=1, max_value=N)),
    st.tuples(st.just("resize"), st.integers(min_value=1, max_value=N)),
    st.tuples(st.just("fail"), RANKS),
    st.tuples(st.just("repair"), RANKS),
)
ORIGINAL_OPS = st.one_of(
    *COMMON,
    st.tuples(st.just("remove"), RANKS),
    st.tuples(st.just("add"), RANKS),
)
CAPACITIES = st.sampled_from([None, None, 16, 40])


@st.composite
def histories(draw):
    flavour = draw(st.sampled_from(["elastic", "elastic", "original"]))
    setup = (flavour, draw(st.sampled_from([2, 3])), draw(CAPACITIES),
             draw(st.sampled_from(["kv", "replicated"])))
    ops = draw(st.lists(ELASTIC_OPS if flavour == "elastic"
                        else ORIGINAL_OPS, max_size=14))
    return setup, ops


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(histories())
def test_batch_leaves_what_a_loop_of_single_writes_leaves(history):
    setup, ops = history
    product = play(setup, ops, batch=True)
    oracle = play(setup, ops, batch=False)
    assert product[0] == oracle[0]
    for got, want in zip(product[1:], oracle[1:]):
        assert got[0] == want[0]
        assert got[1] == want[1], f"step {got[0]}"
        for part in want[2]:
            assert got[2][part] == want[2][part], f"{part} after {got[0]}"


# ----------------------------------------------------------------------
# the cases the generator must be able to reach, pinned
# ----------------------------------------------------------------------
class TestPinnedHistories:
    def agree(self, setup, ops):
        product = play(setup, ops, batch=True)
        assert product == play(setup, ops, batch=False)
        return product

    def test_full_server_partway_through_a_batch(self):
        steps = self.agree(("elastic", 2, 20, "kv"),
                           [("resize", 4),
                            ("write_many", list(range(12)), 8)])
        op, out, state = steps[-1]
        assert out[:2] == ("raised", CapacityExceeded.__name__)
        assert 0 < len(state["headers"]) < 12
        assert state["metrics"]["core.writes"] == len(state["headers"])
        assert (state["metrics"]["cluster.writes"]
                == len(state["headers"]) - 1)

    def test_fewer_than_r_servers_up_changes_nothing(self):
        steps = self.agree(("elastic", 3, None, "kv"),
                           [("resize", 2), ("write_many", [1, 2], 1)])
        _, out, state = steps[-1]
        assert out[1] == "LookupError" and "(oid 1)" in out[2]
        assert state["headers"] == [] and state["last_written"] == {}

    def test_version_behind_the_table_raises_at_the_first_oid(self):
        steps = self.agree(("elastic", 2, None, "replicated"),
                           [("resize", 4), ("insert", 99, 2),
                            ("write_many", [5, 6, 7], 1)])
        _, out, state = steps[-1]
        assert out[1] == "ValueError"
        assert state["last_written"] == {5: 2}
        assert state["headers"] == []

    def test_repeated_oid_in_one_batch(self):
        steps = self.agree(("elastic", 2, None, "kv"),
                           [("resize", 4),
                            ("write_many", [3, 3, 4, 3], 2)])
        _, out, state = steps[-1]
        assert out[0] == "ok" and len(out[1]) == 4
        assert state["metrics"]["core.offloaded_writes"] == 4
        assert state["metrics"]["dirty.inserts"] == 2
        assert state["total_bytes"] == 4

    def test_empty_batch_touches_nothing(self):
        steps = self.agree(("elastic", 2, None, "kv"),
                           [("write_many", [], 1), ("resize", 4),
                            ("write_many", [], 1)])
        assert "cluster.writes" not in steps[-1][2]["metrics"]
        assert "core.writes" not in steps[-1][2]["metrics"]

    def test_baseline_batch(self):
        steps = self.agree(("original", 2, None, "kv"),
                           [("write_many", [1, 2, 1], 3), ("remove", 2),
                            ("write_many", [1, 7], 5)])
        assert steps[-1][1][0] == "ok"


# ----------------------------------------------------------------------
# the size front door
# ----------------------------------------------------------------------
class TestSizeChecked:
    @pytest.mark.parametrize("flavour", [ElasticCluster, OriginalCHCluster])
    @pytest.mark.parametrize("size", [-5, math.nan, math.inf, -math.inf])
    def test_bad_size_rejected_before_anything_changes(self, flavour, size):
        cl = flavour(n=10)
        with pytest.raises(ValueError, match="size"):
            cl.write(1, size)
        with pytest.raises(ValueError, match="size"):
            cl.write_many([1, 2], size)
        assert len(cl.objects) == 0
        assert cl.total_stored_bytes() == 0

    def test_zero_size_is_a_write(self):
        cl = ElasticCluster(n=10)
        cl.write(1, 0)
        assert 1 in cl.objects and cl.total_stored_bytes() == 0
