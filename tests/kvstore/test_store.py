"""KVStore: Redis string/list semantics, edge cases included."""

import pytest

from repro.kvstore.store import KVStore, WrongTypeError


@pytest.fixture
def kv():
    return KVStore()


class TestStrings:
    def test_set_get(self, kv):
        kv.set("k", "v")
        assert kv.get("k") == "v"

    def test_get_missing_is_none(self, kv):
        assert kv.get("nope") is None

    def test_set_overwrites(self, kv):
        kv.set("k", 1)
        kv.set("k", 2)
        assert kv.get("k") == 2

    def test_set_replaces_list(self, kv):
        kv.rpush("k", "a")
        kv.set("k", "str")
        assert kv.get("k") == "str"
        with pytest.raises(WrongTypeError):
            kv.llen("k")

    def test_incr_initialises_to_zero(self, kv):
        assert kv.incr("counter") == 1
        assert kv.incr("counter", 5) == 6

    def test_incr_non_integer_rejected(self, kv):
        kv.set("k", "text")
        with pytest.raises(WrongTypeError):
            kv.incr("k")


class TestGenericOps:
    def test_exists(self, kv):
        assert not kv.exists("k")
        kv.set("k", 1)
        assert kv.exists("k")

    def test_delete_returns_existence(self, kv):
        kv.set("k", 1)
        assert kv.delete("k") is True
        assert kv.delete("k") is False

    def test_delete_removes_lists_too(self, kv):
        kv.rpush("l", 1)
        assert kv.delete("l")
        assert not kv.exists("l")

    def test_keys_and_dbsize(self, kv):
        kv.set("a", 1)
        kv.rpush("b", 2)
        assert sorted(kv.keys()) == ["a", "b"]
        assert kv.dbsize() == 2

    def test_flushall(self, kv):
        kv.set("a", 1)
        kv.rpush("b", 2)
        kv.flushall()
        assert kv.dbsize() == 0


class TestListPush:
    def test_rpush_appends_in_order(self, kv):
        assert kv.rpush("l", "a") == 1
        assert kv.rpush("l", "b", "c") == 3
        assert kv.lrange("l", 0, -1) == ["a", "b", "c"]

    def test_lpush_reverses(self, kv):
        kv.lpush("l", "a", "b")
        assert kv.lrange("l", 0, -1) == ["b", "a"]

    def test_push_requires_values(self, kv):
        with pytest.raises(ValueError):
            kv.rpush("l")

    def test_push_to_string_key_rejected(self, kv):
        kv.set("k", 1)
        with pytest.raises(WrongTypeError):
            kv.rpush("k", "x")
        with pytest.raises(WrongTypeError):
            kv.lpush("k", "x")


class TestListPop:
    def test_lpop_fifo(self, kv):
        kv.rpush("l", 1, 2, 3)
        assert kv.lpop("l") == 1
        assert kv.lpop("l") == 2

    def test_rpop(self, kv):
        kv.rpush("l", 1, 2)
        assert kv.rpop("l") == 2

    def test_pop_missing_is_none(self, kv):
        assert kv.lpop("nope") is None
        assert kv.rpop("nope") is None

    def test_emptied_list_is_deleted(self, kv):
        kv.rpush("l", 1)
        kv.lpop("l")
        assert not kv.exists("l")
        assert kv.llen("l") == 0


class TestLrange:
    def test_stop_is_inclusive(self, kv):
        kv.rpush("l", *range(5))
        assert kv.lrange("l", 0, 2) == [0, 1, 2]

    def test_negative_indices(self, kv):
        kv.rpush("l", *range(5))
        assert kv.lrange("l", -2, -1) == [3, 4]
        assert kv.lrange("l", 0, -1) == [0, 1, 2, 3, 4]

    def test_out_of_range_clamps(self, kv):
        kv.rpush("l", *range(3))
        assert kv.lrange("l", 0, 100) == [0, 1, 2]
        assert kv.lrange("l", -100, 100) == [0, 1, 2]

    def test_inverted_range_empty(self, kv):
        kv.rpush("l", *range(3))
        assert kv.lrange("l", 2, 1) == []

    def test_start_beyond_end_empty(self, kv):
        kv.rpush("l", 1)
        assert kv.lrange("l", 5, 10) == []

    def test_missing_key_empty(self, kv):
        assert kv.lrange("nope", 0, -1) == []


class TestLindexLlen:
    def test_lindex(self, kv):
        kv.rpush("l", "a", "b")
        assert kv.lindex("l", 0) == "a"
        assert kv.lindex("l", -1) == "b"
        assert kv.lindex("l", 5) is None

    def test_llen(self, kv):
        kv.rpush("l", 1, 2, 3)
        assert kv.llen("l") == 3


class TestLrem:
    def test_remove_from_head(self, kv):
        kv.rpush("l", "a", "b", "a", "a")
        assert kv.lrem("l", 2, "a") == 2
        assert kv.lrange("l", 0, -1) == ["b", "a"]

    def test_remove_from_tail(self, kv):
        kv.rpush("l", "a", "b", "a", "a")
        assert kv.lrem("l", -2, "a") == 2
        assert kv.lrange("l", 0, -1) == ["a", "b"]

    def test_count_zero_removes_all(self, kv):
        kv.rpush("l", "a", "b", "a")
        assert kv.lrem("l", 0, "a") == 2
        assert kv.lrange("l", 0, -1) == ["b"]

    def test_missing_value(self, kv):
        kv.rpush("l", "a")
        assert kv.lrem("l", 0, "z") == 0

    def test_emptied_by_lrem_is_deleted(self, kv):
        kv.rpush("l", "a")
        kv.lrem("l", 0, "a")
        assert not kv.exists("l")

    def test_missing_key(self, kv):
        assert kv.lrem("nope", 0, "a") == 0


class TestWrongType:
    def test_list_read_of_string_key(self, kv):
        kv.set("k", 1)
        for op in (lambda: kv.llen("k"),
                   lambda: kv.lrange("k", 0, -1),
                   lambda: kv.lpop("k"),
                   lambda: kv.lindex("k", 0),
                   lambda: kv.lrem("k", 0, "x")):
            with pytest.raises(WrongTypeError):
                op()

    def test_get_of_list_key(self, kv):
        kv.rpush("l", 1)
        with pytest.raises(WrongTypeError):
            kv.get("l")
