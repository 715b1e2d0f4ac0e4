"""The per-view replica-set table: memo discipline, the complexity it
buys, and its invisibility in traces.

Placement is a pure function of (key, committed view), so the store
tabulates ``key -> owners`` once per view and every pass (reads,
writes, ``audit``, anti-entropy) reads the table; a key's ring
position is a pure function of the key alone, so it is hashed once per
store.  A new view reads every known key's owners out of its slot
table in one array pass; a key first seen mid-view takes one scalar
slot lookup; nothing walks the ring.  The generated
equivalence test lives in ``test_replicated_stateful.py``; the checker
mutants (which override ``_choose_reply`` / ``_anti_entropy_pass`` and
friends) keep tripping their checkers in ``test_checker_mutations.py``.
"""

import hashlib
import io

import pytest

from repro.hashring.ring import HashRing
from repro.kvstore.harness import run_kv_churn
from repro.kvstore.replicated import ReplicatedKVStore
from repro.obs.runtime import OBS
from repro.obs.trace import JSONLSink

from ._reference_store import ReferenceKVStore

KEYS = [f"k{i:02d}" for i in range(40)]


def placement(store):
    return {key: store.replica_set(key) for key in KEYS}


class _Counts:
    """Keys hashed (``HashRing.key_position``), ring positions walked
    (``HashRing.walk_servers``), scalar slot lookups
    (``HashRing.successor_slot``) and bulk ones
    (``HashRing.bulk_successor_slots``) since the last ``clear``."""

    def __init__(self):
        self.hashes = []
        self.walks = []
        self.slots = []
        self.bulk = []

    def clear(self):
        del self.hashes[:], self.walks[:], self.slots[:], self.bulk[:]


@pytest.fixture
def ring_walks(monkeypatch):
    counts = _Counts()
    real_position = HashRing.key_position
    real_walk = HashRing.walk_servers
    real_slot = HashRing.successor_slot
    real_bulk = HashRing.bulk_successor_slots

    def key_position(self, key):
        counts.hashes.append(key)
        return real_position(self, key)

    def walk_servers(self, position):
        counts.walks.append(position)
        return real_walk(self, position)

    def successor_slot(self, position):
        counts.slots.append(position)
        return real_slot(self, position)

    def bulk_successor_slots(self, positions):
        counts.bulk.append(positions.size)
        return real_bulk(self, positions)

    monkeypatch.setattr(HashRing, "key_position", key_position)
    monkeypatch.setattr(HashRing, "walk_servers", walk_servers)
    monkeypatch.setattr(HashRing, "successor_slot", successor_slot)
    monkeypatch.setattr(HashRing, "bulk_successor_slots",
                        bulk_successor_slots)
    return counts


class TestMemoDiscipline:
    def test_propose_alone_never_changes_an_answer(self):
        store = ReplicatedKVStore([1, 2, 3, 4], replicas=3)
        before = placement(store)
        store.propose_view([2, 3, 4, 5, 6])
        assert placement(store) == before
        for key in KEYS[:5]:           # ops still run on the old view
            store.set(key, "v")
        assert placement(store) == before

    def test_commit_remaps_exactly_what_a_fresh_walk_remaps(self):
        store = ReplicatedKVStore([1, 2, 3, 4], replicas=3)
        oracle = ReferenceKVStore([1, 2, 3, 4], replicas=3)
        before = placement(store)
        for view in ([1, 2, 3, 4, 5], [2, 3, 4, 5], [1, 2, 3, 5]):
            store.change_view(view)
            oracle.change_view(view)
            assert placement(store) == placement(oracle)
        after = placement(store)
        assert any(after[key] != before[key] for key in KEYS)
        assert all(4 not in owners for owners in after.values())
        store.change_view([1, 2, 3, 4])
        assert placement(store) == before      # same members, same answer

    def test_caller_cannot_poison_the_table(self):
        store = ReplicatedKVStore([1, 2, 3, 4], replicas=3)
        first = store.replica_set("k")
        expected = list(first)
        first.reverse()
        first.append("intruder")
        assert store.replica_set("k") == expected
        assert store.replica_set("k") is not store.replica_set("k")


class TestOneWalkPerKeyPerView:
    def test_second_audit_in_a_view_walks_nothing(self, ring_walks):
        store = ReplicatedKVStore([1, 2, 3, 4, 5], replicas=3)
        for key in KEYS:
            store.set(key, "v")
        store.audit()
        ring_walks.clear()
        report = store.audit()
        assert report["keys"] == len(KEYS)
        assert ring_walks.walks == [] and ring_walks.hashes == []
        assert ring_walks.slots == [] and ring_walks.bulk == []

    @pytest.mark.parametrize("passes", [1, 5])
    def test_k_keys_v_views_cost_at_most_k_times_v_walks(
            self, ring_walks, passes):
        store = ReplicatedKVStore([1, 2, 3, 4, 5], replicas=3)
        views = [[1, 2, 3, 4], [1, 2, 3, 4, 5], [2, 3, 4, 5, 6]]
        for view in [None] + views:
            if view is not None:
                store.change_view(view)
            for _ in range(passes):
                for key in KEYS:
                    store.set(key, "v", client="alice")
                    store.get(key, client="alice")
                store.audit()
                store.anti_entropy()
        # nothing walks the ring: a key's first touch is one slot
        # lookup ...
        assert ring_walks.walks == []
        assert len(ring_walks.slots) == len(KEYS)
        # ... every later view reads all of them in one array pass (the
        # first view knew no key yet) ...
        assert ring_walks.bulk == [0] + [len(KEYS)] * len(views)
        # ... from a position hashed once, when the store first saw
        # the key
        assert sorted(ring_walks.hashes) == KEYS


# sha256 of the JSONL trace each run emitted at the parent commit
# (446d9ed, unmemoised ring walk + per-key node sorts): the table and
# the shared newest-copy scan must be invisible in traces.
PARENT_TRACES = {
    "default":
        "c28852079e9004f5109d858cebbffad7536acdb58a9c413cbe2a33af2551d64c",
    "many-views":
        "aed9fa610be8678b83b58d42eb1a383f9e6d45a448268263688a51e4a4292a43",
}

RUNS = {
    "default": dict(seed=7),
    "many-views": dict(seed=7, nodes=15, replicas=3, clients=32, keys=900,
                       duration=120),
}


class TestTraceIdentityWithParentCommit:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_kv_churn(self, name):
        OBS.reset()
        buf = io.StringIO()
        sink = OBS.bus.attach(JSONLSink(buf))
        try:
            result = run_kv_churn(**RUNS[name])
        finally:
            OBS.bus.detach(sink)
        assert result.ok
        assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
                == PARENT_TRACES[name])
