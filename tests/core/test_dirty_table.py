"""Dirty-data tracking (§III-E-2, Figure 6)."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dirty_table import DirtyEntry, DirtyTable
from repro.kvstore.replicated import ReplicatedKVStore
from repro.kvstore.store import KVStore

NODES = ["s0", "s1", "s2", "s3"]

#: Everything the table is run on: the default plain store, and the
#: distributed one as the paper's hash-sharded store (R = 1) and as
#: the chaos harness configures it (R = 3).
BACKENDS = {
    "plain": KVStore,
    "sharded (R=1)": lambda: ReplicatedKVStore(NODES, replicas=1),
    "replicated (R=3)": lambda: ReplicatedKVStore(NODES, replicas=3),
}


def every_backend():
    """``(label, fresh store)`` per backend.  The cases below loop
    instead of using ``parametrize`` so each keeps the one test id it
    has always had; *label* goes into every assertion message."""
    return [(label, make()) for label, make in BACKENDS.items()]


def set_members(kv, members):
    """A membership change where there is a membership."""
    if isinstance(kv, ReplicatedKVStore):
        kv.change_view(members)


def holders(kv, key):
    return sorted(nid for nid, copy in kv._copies.get(key, {}).items()
                  if copy.state is not None)


@pytest.fixture
def table():
    return DirtyTable()


class TestInsert:
    def test_insert_and_len(self, table):
        assert table.insert(100, 8)
        assert table.insert(200, 8)
        assert len(table) == 2
        assert not table.is_empty()

    def test_dedupe_same_oid_version(self, table):
        assert table.insert(100, 8)
        assert not table.insert(100, 8)
        assert len(table) == 1

    def test_same_oid_new_version_appends(self, table):
        table.insert(100, 8)
        table.insert(100, 9)
        assert len(table) == 2

    def test_version_regression_rejected(self, table):
        table.insert(100, 9)
        with pytest.raises(ValueError):
            table.insert(200, 8)

    def test_contains(self, table):
        table.insert(100, 8)
        assert table.contains(100, 8)
        assert not table.contains(100, 9)
        assert table.contains_oid(100)
        assert not table.contains_oid(999)


class TestFetchOrder:
    def test_version_then_oid_order(self, table):
        """§III-E-3: 'version ascending and OID ascending if the
        version is the same' — Figure 6's dirty table layout."""
        table.insert(100, 8)
        table.insert(200, 8)
        table.insert(9, 9)
        table.insert(103, 9)
        table.insert(10010, 9)
        table.insert(20400, 9)
        table.insert(102, 10)
        got = [(e.version, e.oid) for e in table.entries()]
        assert got == [(8, 100), (8, 200), (9, 9), (9, 103), (9, 10010),
                       (9, 20400), (10, 102)]

    def test_oid_order_within_version_regardless_of_insert_order(self, table):
        table.insert(500, 3)
        table.insert(10, 3)
        table.insert(99, 3)
        assert [e.oid for e in table.entries()] == [10, 99, 500]

    def test_head(self, table):
        assert table.head() is None
        table.insert(300, 5)
        table.insert(2, 5)
        assert table.head() == DirtyEntry(version=5, oid=2)

    def test_iter_matches_entries(self, table):
        table.insert(1, 1)
        table.insert(2, 1)
        assert list(table) == table.entries()


class TestRemoval:
    def test_remove_specific_entry(self, table):
        table.insert(100, 8)
        table.insert(200, 8)
        assert table.remove(DirtyEntry(version=8, oid=100))
        assert [e.oid for e in table.entries()] == [200]

    def test_remove_missing_is_false(self, table):
        assert not table.remove(DirtyEntry(version=1, oid=1))

    def test_remove_oid_clears_all_versions(self, table):
        table.insert(100, 8)
        table.insert(100, 9)
        table.insert(200, 9)
        assert table.remove_oid(100) == 2
        assert not table.contains_oid(100)
        assert len(table) == 1

    def test_clear(self, table):
        table.insert(1, 1)
        table.insert(2, 2)
        table.clear()
        assert table.is_empty()
        assert table.head() is None


class TestSharding:
    def test_entries_spread_over_shards(self):
        """§III-E-2: spread over the servers, yet all of one object's
        entries on one replica set."""
        for label, kv in every_backend():
            table = DirtyTable(kv)
            for version in (1, 2):
                for oid in range(100):
                    table.insert(oid, version)
            for oid in range(100):
                key = f"oid:{oid}"
                assert kv.llen(key) == 2, (label, oid)
                if label != "plain":
                    assert holders(kv, key) == sorted(
                        kv.replica_set(key)), (label, oid)
            if label != "plain":
                holding = {nid for oid in range(100)
                           for nid in holders(kv, f"oid:{oid}")}
                assert holding == set(NODES), label

    def test_order_preserved_across_shards(self):
        for label, kv in every_backend():
            table = DirtyTable(kv)
            for version in (1, 2, 3):
                for oid in range(10):
                    table.insert(oid * 7 + version, version)
            entries = table.entries()
            assert len(entries) == 30, label
            assert entries == sorted(entries), label


class TestMembershipChange:
    """§III-E-2: the table follows cluster membership.  Because every
    entry lives under a routed per-OID key, a view change carries the
    remapped lists and the table's contents survive unchanged."""

    def fill(self, table):
        expected = []
        for version in (1, 2, 3):
            for oid in range(40):
                table.insert(oid * 3 + version, version)
                expected.append(DirtyEntry(version=version,
                                           oid=oid * 3 + version))
        expected.sort()
        return expected

    def test_contents_intact_across_add_shard(self):
        for label, kv in every_backend():
            table = DirtyTable(kv)
            expected = self.fill(table)
            set_members(kv, NODES + ["s-new"])
            assert table.entries() == expected, label
            assert len(table) == len(expected), label
            assert table.head() == expected[0], label

    def test_contents_intact_across_remove_shard(self):
        for label, kv in every_backend():
            table = DirtyTable(kv)
            expected = self.fill(table)
            set_members(kv, [n for n in NODES if n != "s2"])
            assert table.entries() == expected, label
            assert len(table) == len(expected), label

    def test_removal_still_routes_after_membership_change(self):
        for label, kv in every_backend():
            table = DirtyTable(kv)
            expected = self.fill(table)
            set_members(kv, NODES + ["s-new"])
            head = table.head()
            assert table.remove(head), label
            assert len(table) == len(expected) - 1, label
            assert head not in table.entries(), label


# ----------------------------------------------------------------------
# the table does not care what holds it: one generated op sequence, all
# three backends and a plain set as the model
# ----------------------------------------------------------------------
OIDS = st.integers(0, 7)
VIEWS = st.sets(st.sampled_from(NODES + ["s4"]), min_size=3).map(sorted)
TABLE_OPS = st.one_of(
    st.tuples(st.just("insert"), OIDS, st.integers(0, 1)),
    st.tuples(st.just("remove"), OIDS, st.integers(0, 6)),
    st.tuples(st.just("remove_oid"), OIDS),
    st.tuples(st.just("clear")),
    st.tuples(st.just("view"), VIEWS),
)


class TestBackendDifferential:
    @given(ops=st.lists(TABLE_OPS, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_same_answers_on_every_backend(self, ops):
        tables = [(label, kv, DirtyTable(kv))
                  for label, kv in every_backend()]
        model = set()                  # {(version, oid)}
        version = 1
        for op, *args in ops:
            if op == "view":
                for _label, kv, _table in tables:
                    set_members(kv, args[0])
                continue
            if op == "insert":
                oid, bump = args
                version = min(version + bump, 6)
                replies = {t.insert(oid, version) for _l, _k, t in tables}
                assert replies == {(version, oid) not in model}
                model.add((version, oid))
            elif op == "remove":
                oid, v = args
                replies = {t.remove(DirtyEntry(version=v, oid=oid))
                           for _l, _k, t in tables}
                assert replies == {(v, oid) in model}
                model.discard((v, oid))
            elif op == "remove_oid":
                victims = {e for e in model if e[1] == args[0]}
                replies = {t.remove_oid(args[0]) for _l, _k, t in tables}
                assert replies == {len(victims)}
                model -= victims
            else:
                for _label, _kv, table in tables:
                    table.clear()
                model.clear()
            want = sorted(DirtyEntry(version=v, oid=o) for v, o in model)
            for label, _kv, table in tables:
                assert table.entries() == want, label
                assert table.head() == (want[0] if want else None), label
                assert len(table) == len(want), label
                for oid in range(8):
                    # The scan the oid-keyed index replaced, as oracle.
                    assert table.contains_oid(oid) == any(
                        o == oid for _v, o in model), (label, oid)
                    for v in range(7):
                        assert table.contains(oid, v) == (
                            (v, oid) in model), (label, oid, v)


class _NoBackend:
    """Stands in for a table's store: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the backend was asked for {name!r}")


class TestHeadFromIndex:
    """``head()`` is answered from the in-memory index: the first
    entry in (version, oid) order, with no call on the store."""

    @pytest.mark.parametrize("label", list(BACKENDS))
    def test_head_makes_no_backend_call(self, label):
        table = DirtyTable(BACKENDS[label]())
        for oid, version in [(9, 1), (4, 1), (7, 2), (4, 2), (1, 3)]:
            table.insert(oid, version)
        want = table.entries()[0]
        kv, table._kv = table._kv, _NoBackend()
        try:
            assert table.head() == want == DirtyEntry(version=1, oid=4)
        finally:
            table._kv = kv

    @pytest.mark.parametrize("ops", [
        [("insert", 5, 1), ("insert", 3, 1), ("insert", 8, 2)],
        [("insert", 2, 1), ("insert", 2, 2), ("remove", 2, 1)],
        [("insert", 6, 1), ("insert", 1, 2), ("remove_oid", 6)],
        [("insert", 4, 1), ("insert", 4, 3), ("insert", 0, 3),
         ("remove", 4, 1)],
        [("insert", 3, 2), ("insert", 1, 2), ("clear",),
         ("insert", 7, 4)],
    ], ids=["version-then-oid", "older-version-removed",
            "oid-removed", "ties-by-oid", "after-clear"])
    def test_head_is_the_first_entry_after_every_op(self, ops):
        table = DirtyTable()
        assert table.head() is None
        for op, *args in ops:
            if op == "insert":
                table.insert(*args)
            elif op == "remove":
                oid, version = args
                assert table.remove(DirtyEntry(version=version, oid=oid))
            elif op == "remove_oid":
                assert table.remove_oid(*args)
            else:
                table.clear()
            entries = table.entries()
            assert table.head() == (entries[0] if entries else None), op


class TestContainsOidCost:
    def test_contains_oid_does_not_scan_the_index(self):
        """Regression: ``contains_oid`` was ``any(...)`` over every
        entry — 2.7 ms a miss at this size, once per removed entry in
        ``ElasticCluster._settle_selective``, so a budgeted drain of a
        large table was quadratic.  The scan needs 3.8 s here, the
        index a few hundred microseconds."""
        table = DirtyTable()
        for oid in range(20_000):
            table.insert(oid, 1)
        start = time.perf_counter()
        hits = sum(table.contains_oid(oid) for oid in range(20_000, 22_000))
        elapsed = time.perf_counter() - start
        assert hits == 0
        assert table.contains_oid(19_999) and len(table) == 20_000
        assert elapsed < 0.3, f"2 000 misses took {elapsed:.2f} s"
