"""Property tests: the KV store's list type behaves like a deque, and
neither sharding nor replication changes observable semantics — both
stores answer every command exactly as an independently written model
of the Redis semantics does."""

import inspect
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import commands
from repro.kvstore.commands import WrongTypeError
from repro.kvstore.replicated import ReplicatedKVStore
from repro.kvstore.store import KVStore

values = st.integers(min_value=-1000, max_value=1000)


class TestListModel:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["rpush", "lpush", "lpop", "rpop"]),
                  values),
        max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_deque_model(self, ops):
        kv = KVStore()
        model = deque()
        for op, v in ops:
            if op == "rpush":
                kv.rpush("l", v)
                model.append(v)
            elif op == "lpush":
                kv.lpush("l", v)
                model.appendleft(v)
            elif op == "lpop":
                got = kv.lpop("l")
                want = model.popleft() if model else None
                assert got == want
            elif op == "rpop":
                got = kv.rpop("l")
                want = model.pop() if model else None
                assert got == want
            assert kv.lrange("l", 0, -1) == list(model)
            assert kv.llen("l") == len(model)

    @given(items=st.lists(values, max_size=30),
           start=st.integers(min_value=-35, max_value=35),
           stop=st.integers(min_value=-35, max_value=35))
    @settings(max_examples=200, deadline=None)
    def test_lrange_matches_redis_model(self, items, start, stop):
        kv = KVStore()
        if items:
            kv.rpush("l", *items)
        n = len(items)
        s = max(n + start, 0) if start < 0 else start
        e = n + stop if stop < 0 else stop
        e = min(e, n - 1)
        expected = items[s:e + 1] if (n and s <= e and s < n) else []
        assert kv.lrange("l", start, stop) == expected


class RedisModel:
    """The oracle: strings and LISTs as Redis documents them, written
    against ``dict`` + ``deque`` and sharing no line with
    :mod:`repro.kvstore.commands` (it is the deque-backed store that
    module replaced, compacted)."""

    def __init__(self):
        self.strings, self.lists = {}, {}

    def _list(self, key):
        if key in self.strings:
            raise WrongTypeError(key)
        return self.lists.get(key, deque())

    def _string(self, key):
        if key in self.lists:
            raise WrongTypeError(key)
        return self.strings.get(key)

    def _keep(self, key, items):
        if items:
            self.lists[key] = items
        else:
            self.lists.pop(key, None)

    def keys(self):
        return [*self.strings, *self.lists]

    def dbsize(self):
        return len(self.keys())

    def set(self, key, value):
        self.lists.pop(key, None)
        self.strings[key] = value

    def get(self, key):
        return self._string(key)

    def incr(self, key, amount=1):
        current = self._string(key)
        current = 0 if current is None else current
        if not isinstance(current, int):
            raise WrongTypeError(key)
        self.strings[key] = current + amount
        return current + amount

    def delete(self, key):
        existed = self.exists(key)
        self.strings.pop(key, None)
        self.lists.pop(key, None)
        return existed

    def exists(self, key):
        return key in self.strings or key in self.lists

    def rpush(self, key, *values):
        if not values:
            raise ValueError("rpush")
        items = self._list(key)
        items.extend(values)
        self._keep(key, items)
        return len(items)

    def lpush(self, key, *values):
        if not values:
            raise ValueError("lpush")
        items = self._list(key)
        items.extendleft(values)
        self._keep(key, items)
        return len(items)

    def lpop(self, key):
        items = self._list(key)
        head = items.popleft() if items else None
        self._keep(key, items)
        return head

    def rpop(self, key):
        items = self._list(key)
        tail = items.pop() if items else None
        self._keep(key, items)
        return tail

    def llen(self, key):
        return len(self._list(key))

    def lindex(self, key, index):
        items = self._list(key)
        return items[index] if -len(items) <= index < len(items) else None

    def lrange(self, key, start, stop):
        items = list(self._list(key))
        n = len(items)
        start = max(n + start, 0) if start < 0 else start
        stop = n + stop if stop < 0 else stop
        return items[start:stop + 1] if stop >= 0 else []

    def lrem(self, key, count, value):
        items = list(self._list(key))
        if count < 0:
            items.reverse()
        removed = 0
        kept = deque()
        for item in items:
            if item == value and (count == 0 or removed < abs(count)):
                removed += 1
            else:
                kept.append(item)
        if count < 0:
            kept.reverse()
        self._keep(key, kept)
        return removed


# Keys from a tiny alphabet so string and list commands collide on the
# same key; values small so LREM finds something to remove.
KEYS = st.sampled_from("abc")
VALUES = st.one_of(st.integers(-2, 2), st.just("x"))
SMALL = st.integers(-5, 5)
COMMANDS = st.one_of(
    st.tuples(st.just("set"), KEYS, VALUES),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("incr"), KEYS, SMALL),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("exists"), KEYS),
    st.builds(lambda name, key, values: (name, key, *values),
              st.sampled_from(["rpush", "lpush"]), KEYS,
              st.lists(VALUES, max_size=3)),      # none: a ValueError
    st.tuples(st.sampled_from(["lpop", "rpop", "llen"]), KEYS),
    st.tuples(st.just("lindex"), KEYS, SMALL),
    st.tuples(st.just("lrange"), KEYS, SMALL, SMALL),
    st.tuples(st.just("lrem"), KEYS, st.integers(-2, 2), VALUES),
)
assert {"set", "get", "incr", "delete", "exists", "rpush", "lpush", "lpop",
        "rpop", "llen", "lindex", "lrange", "lrem"} == {
    name for name, fn in inspect.getmembers(commands, inspect.isfunction)
    if not name.startswith("_") and name != "require_values"}

STORES = {
    "plain": KVStore,
    "sharded": lambda: ReplicatedKVStore(["a", "b", "c"], replicas=1),
    "replicated": lambda: ReplicatedKVStore([1, 2, 3, 4, 5], replicas=3),
}


def outcome(store, name, args):
    try:
        return "reply", getattr(store, name)(*args)
    except (WrongTypeError, ValueError) as exc:
        return "raised", type(exc)


def assert_transparent(ops, stores):
    """Every store in *stores* answers *ops* as the model does."""
    model = RedisModel()
    stores = {label: STORES[label]() for label in stores}
    for name, *args in ops:
        want = outcome(model, name, args)
        for label, store in stores.items():
            assert outcome(store, name, args) == want, (label, name, args)
            assert set(store.keys()) == set(model.keys()), label
            assert store.dbsize() == model.dbsize(), label


class TestShardingTransparency:
    """Where a value is kept, and in how many copies, never shows in a
    reply (no faults injected: that is ``tests/kvstore``'s subject)."""

    @given(kvs=st.lists(st.tuples(st.text(min_size=1, max_size=8),
                                  values),
                        max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_sharded_set_get_equals_plain(self, kvs):
        plain = KVStore()
        sharded = STORES["sharded"]()
        for k, v in kvs:
            plain.set(k, v)
            sharded.set(k, v)
        for k, _ in kvs:
            assert sharded.get(k) == plain.get(k)
        assert sorted(sharded.keys()) == sorted(plain.keys())
        assert sharded.dbsize() == plain.dbsize()

    @given(ops=st.lists(COMMANDS, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_every_command_answers_alike_on_every_store(self, ops):
        assert_transparent(ops, STORES)


class TestOnePlaceToBreak:
    """The LIST semantics have one body: a bug planted in
    :mod:`repro.kvstore.commands` shows through *both* stores, and the
    differential above tells either apart from the model.  Pinned on a
    script small enough to read rather than on the luck of a seed."""

    SCRIPT = [
        ("rpush", "a", 1, 2, 3),
        ("lpush", "a", "x", 0),            # lands as 0, "x", 1, 2, 3
        ("lindex", "a", 0),
        ("lrange", "a", 1, 3),
        ("lrange", "a", -2, -1),
        ("lrem", "a", -1, 2),
        ("lpop", "a"),
        ("llen", "a"),
    ]

    MUTANTS = {
        "lrange-off-by-one": ("lrange", "items[start:stop + 1]",
                              "items[start:stop]"),
        "lpush-forgets-to-reverse": ("lpush", "values[::-1]", "values"),
    }

    @pytest.mark.parametrize("store", sorted(STORES))
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_planted_bug_is_found_through(self, mutant, store,
                                          monkeypatch):
        name, old, new = self.MUTANTS[mutant]
        source = inspect.getsource(getattr(commands, name))
        assert source.count(old) == 1, f"{name} no longer has {old!r}"
        namespace = {}
        exec(compile(source.replace(old, new), f"<{mutant}>", "exec"),
             vars(commands), namespace)
        assert_transparent(self.SCRIPT, [store])   # the honest table
        monkeypatch.setattr(commands, name, namespace[name])
        with pytest.raises(AssertionError):
            assert_transparent(self.SCRIPT, [store])
