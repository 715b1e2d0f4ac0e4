"""``ReplicatedKVStore(replicas=1)`` is the hash-sharded store of
§III-E-2: routing stability, fan-out ops, list locality, and
minimal-movement membership changes.

These are the assertions the deleted ``ShardedKVStore`` was held to,
made against the store that replaced it: a key's shard is its
``replica_set`` of one, ``add_shard`` / ``remove_shard`` are a
``change_view`` (whose commit runs the anti-entropy pass that carries
the remapped keys), and "which shard holds it" is read off the copies
themselves."""

from collections import Counter

import pytest

from repro.kvstore.replicated import ReplicatedKVStore


def sharded(shard_ids):
    return ReplicatedKVStore(shard_ids, replicas=1)


def shard_for(store, key):
    (owner,) = store.replica_set(key)
    return owner


def holders(store, key):
    """The nodes physically holding a live copy of *key*."""
    return [nid for nid, versioned in store._copies.get(key, {}).items()
            if versioned.state is not None]


def set_shards(store, shard_ids):
    """Commit a view of *shard_ids*; returns how many copies moved."""
    before = store.stats["repair_copies"]
    store.change_view(shard_ids)
    return store.stats["repair_copies"] - before


def add_shard(store, shard_id):
    return set_shards(store, [*store.members, shard_id])


def remove_shard(store, shard_id):
    return set_shards(store, [m for m in store.members if m != shard_id])


@pytest.fixture
def store():
    return sharded(["s1", "s2", "s3", "s4"])


class TestRouting:
    def test_requires_shards(self):
        with pytest.raises(ValueError):
            sharded([])

    def test_routing_is_stable(self, store):
        assert shard_for(store, "key-x") == shard_for(store, "key-x")

    def test_keys_spread_over_shards(self, store):
        owners = {shard_for(store, f"key-{i}") for i in range(200)}
        assert len(owners) == 4

    def test_roughly_balanced(self, store):
        counts = Counter(shard_for(store, f"key-{i}") for i in range(2000))
        assert max(counts.values()) / min(counts.values()) < 2.5


class TestRoutedCommands:
    def test_set_get_roundtrip(self, store):
        store.set("k", "v")
        assert store.get("k") == "v"
        assert store.exists("k")

    def test_value_lands_on_owning_shard_only(self, store):
        store.set("k", "v")
        assert holders(store, "k") == [shard_for(store, "k")]

    def test_list_stays_on_one_shard(self, store):
        store.rpush("list-key", 1, 2, 3)
        assert holders(store, "list-key") == [shard_for(store, "list-key")]
        assert store.lrange("list-key", 0, -1) == [1, 2, 3]

    def test_list_ops_route_consistently(self, store):
        store.rpush("l", "a", "b")
        store.lpush("l", "z")
        assert store.lpop("l") == "z"
        assert store.rpop("l") == "b"
        assert store.llen("l") == 1
        assert store.lindex("l", 0) == "a"
        assert store.lrem("l", 0, "a") == 1

    def test_incr_and_delete(self, store):
        assert store.incr("c") == 1
        assert store.delete("c") is True


class TestFanOut:
    def test_keys_aggregates_all_shards(self, store):
        for i in range(20):
            store.set(f"k{i}", i)
        assert sorted(store.keys()) == sorted(f"k{i}" for i in range(20))

    def test_dbsize(self, store):
        for i in range(10):
            store.set(f"k{i}", i)
        assert store.dbsize() == 10

    def test_flushall(self, store):
        for i in range(10):
            store.rpush("l", i)
            store.set(f"k{i}", i)
        store.flushall()
        assert store.dbsize() == 0


class TestMembership:
    """A view change at R = 1: consistent-hash minimal movement applied
    to the metadata store itself."""

    def populate(self, store, count=200):
        data = {}
        for i in range(count):
            if i % 3 == 0:
                key = f"list-{i}"
                store.rpush(key, i, i + 1)
                data[key] = ("list", [i, i + 1])
            else:
                key = f"str-{i}"
                store.set(key, i)
                data[key] = ("string", i)
        return data

    def assert_intact(self, store, data):
        for key, (kind, value) in data.items():
            if kind == "string":
                assert store.get(key) == value, key
            else:
                assert store.lrange(key, 0, -1) == value, key
            # One copy, on the owner: the old shard dropped its own.
            assert holders(store, key) == [shard_for(store, key)], key
        assert store.dbsize() == len(data)
        assert store.anti_entropy() == 0     # nothing left to move

    def test_add_shard_moves_only_remapped_keys(self):
        store = sharded(["s1", "s2", "s3"])
        data = self.populate(store)
        before = {key: shard_for(store, key) for key in data}
        moved = add_shard(store, "s4")
        # Minimal movement: every key either stayed put or moved to the
        # NEW shard — no key changed hands between surviving shards.
        for key in data:
            after = shard_for(store, key)
            assert after == before[key] or after == "s4", key
        remapped = [k for k in data if shard_for(store, k) != before[k]]
        assert moved == len(remapped) > 0
        # Far fewer keys move than a full rehash would touch.
        assert moved < len(data) / 2
        self.assert_intact(store, data)

    def test_remove_shard_returns_keys_to_survivors(self):
        store = sharded(["s1", "s2", "s3", "s4"])
        data = self.populate(store)
        before = {key: shard_for(store, key) for key in data}
        victims = [k for k in data if before[k] == "s4"]
        moved = remove_shard(store, "s4")
        assert moved == len(victims)
        # Keys not on the removed shard did not move.
        for key in data:
            if before[key] != "s4":
                assert shard_for(store, key) == before[key], key
        assert "s4" not in store.members
        self.assert_intact(store, data)

    def test_add_then_remove_is_an_identity_on_placement(self):
        store = sharded(["s1", "s2", "s3"])
        data = self.populate(store)
        before = {key: shard_for(store, key) for key in data}
        add_shard(store, "s4")
        remove_shard(store, "s4")
        assert {key: shard_for(store, key) for key in data} == before
        self.assert_intact(store, data)

    def test_duplicate_add_rejected(self):
        store = sharded(["s1", "s2"])
        with pytest.raises(ValueError):
            add_shard(store, "s1")
        assert store.members == ("s1", "s2")

    def test_cannot_remove_last_shard(self):
        store = sharded(["s1"])
        with pytest.raises(ValueError):
            remove_shard(store, "s1")
        assert store.members == ("s1",)

    def test_list_order_preserved_across_migration(self):
        store = sharded(["s1", "s2"])
        for i in range(50):
            store.rpush(f"q-{i}", "a", "b", "c")
        add_shard(store, "s3")
        remove_shard(store, "s1")
        for i in range(50):
            assert store.lrange(f"q-{i}", 0, -1) == ["a", "b", "c"]


class TestFanOutDeterminism:
    """keys()/dbsize()/flushall() and migrations do not depend on the
    order shards were admitted in."""

    IDS = ["s1", "s2", "s3", "s4"]

    def build(self, order):
        store = sharded([order[0]])
        for sid in order[1:]:
            add_shard(store, sid)
        for i in range(60):
            store.set(f"k{i}", i)
            store.rpush(f"l{i}", i, i + 1)
        return store

    def test_keys_identical_across_insertion_orders(self):
        a = self.build(self.IDS)
        b = self.build(list(reversed(self.IDS)))
        assert a.keys() == b.keys()
        assert a.dbsize() == b.dbsize() == 120

    def test_keys_order_is_shard_sorted(self, store):
        """One sorted listing, whichever shard holds what."""
        for i in range(40):
            store.set(f"k{i}", i)
        assert store.keys() == sorted(f"k{i}" for i in range(40))
        assert len({shard_for(store, key) for key in store.keys()}) == 4

    def test_flushall_covers_every_shard(self):
        store = self.build(list(reversed(self.IDS)))
        store.flushall()
        assert store.dbsize() == 0
        assert store._copies == {}

    def test_migration_audit_order_independent(self):
        # Same final membership reached through different histories
        # must land every key on the same shard.
        a = self.build(self.IDS)
        b = self.build(list(reversed(self.IDS)))
        add_shard(a, "s9")
        add_shard(b, "s9")
        for i in range(60):
            assert shard_for(a, f"k{i}") == shard_for(b, f"k{i}")
            assert holders(a, f"k{i}") == holders(b, f"k{i}")
            assert a.get(f"k{i}") == b.get(f"k{i}") == i


class TestChurnInterleaving:
    """Writes interleaved with membership changes — every acked write
    survives and list order is preserved."""

    def test_writes_between_membership_changes_survive(self):
        store = sharded(["s1", "s2"])
        expected = {}
        step = 0
        for op in ["+s3", "w", "-s1", "w", "+s4", "w", "-s2", "w"]:
            if op == "w":
                for _ in range(25):
                    key = f"k-{step}"
                    store.set(key, step)
                    expected[key] = step
                    store.rpush(f"l-{step % 7}", step)
                    step += 1
            elif op.startswith("+"):
                add_shard(store, op[1:])
            else:
                remove_shard(store, op[1:])
        for key, value in expected.items():
            assert store.get(key) == value, key
        # List pushes were strictly increasing: order must be too.
        for i in range(7):
            items = store.lrange(f"l-{i}", 0, -1)
            assert items == sorted(items), f"l-{i}"
        audit = store.audit("end")
        assert audit["lost_acked"] == audit["under_replicated"] == 0

    def test_mid_migration_counter_not_double_counted(self):
        store = sharded(["s1", "s2", "s3"])
        for i in range(30):
            store.incr(f"c-{i}")
        add_shard(store, "s4")
        for i in range(30):
            store.incr(f"c-{i}")
        remove_shard(store, "s2")
        for i in range(30):
            assert store.get(f"c-{i}") == 2, f"c-{i}"
        assert store.dbsize() == 30
