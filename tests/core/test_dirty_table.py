"""Dirty-data tracking (§III-E-2, Figure 6)."""

import pytest

from repro.core.dirty_table import DirtyEntry, DirtyTable
from repro.kvstore.sharded import ShardedKVStore


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


class TestVersionQueries:
    def test_versions_present(self, table):
        table.insert(1, 3)
        table.insert(2, 5)
        assert table.versions_present() == [3, 5]

    def test_entries_for_version(self, table):
        table.insert(1, 3)
        table.insert(2, 3)
        table.insert(3, 5)
        assert [e.oid for e in table.entries_for_version(3)] == [1, 2]


class TestSharding:
    def test_entries_spread_over_shards(self):
        kv = ShardedKVStore([f"s{i}" for i in range(4)])
        table = DirtyTable(kv)
        for oid in range(100):
            table.insert(oid, 1)
        holding = [sid for sid in kv.shard_ids
                   if any(k.startswith("oid:")
                          for k in kv.shard(sid).keys())]
        assert len(holding) == 4

    def test_order_preserved_across_shards(self):
        kv = ShardedKVStore([f"s{i}" for i in range(4)])
        table = DirtyTable(kv)
        for version in (1, 2, 3):
            for oid in range(10):
                table.insert(oid * 7 + version, version)
        entries = table.entries()
        assert entries == sorted(entries)


class TestMembershipChange:
    """§III-E-2: the table follows cluster membership.  Because every
    entry lives under a routed per-OID key, shard add/remove migrates
    the remapped lists and the table's contents survive unchanged."""

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
        kv = ShardedKVStore([f"s{i}" for i in range(3)])
        table = DirtyTable(kv)
        expected = self.fill(table)
        kv.add_shard("s-new")
        assert table.entries() == expected
        assert len(table) == len(expected)
        assert table.head() == expected[0]

    def test_contents_intact_across_remove_shard(self):
        kv = ShardedKVStore([f"s{i}" for i in range(4)])
        table = DirtyTable(kv)
        expected = self.fill(table)
        kv.remove_shard("s2")
        assert table.entries() == expected
        assert len(table) == len(expected)

    def test_removal_still_routes_after_membership_change(self):
        kv = ShardedKVStore([f"s{i}" for i in range(3)])
        table = DirtyTable(kv)
        expected = self.fill(table)
        kv.add_shard("s-new")
        head = table.head()
        assert table.remove(head)
        assert len(table) == len(expected) - 1
        assert head not in table.entries()
