"""ReplicatedKVStore: quorum ops, views, tombstones, sessions,
crash/repair, degraded reads, audits."""

import pytest

from repro.kvstore.replicated import (
    NoQuorumError,
    ReplicatedKVStore,
    Session,
    StaleSessionError,
    View,
    vv_dominates,
    vv_merge,
)
from repro.kvstore.store import WrongTypeError
from repro.obs.runtime import OBS


@pytest.fixture
def kv():
    return ReplicatedKVStore([1, 2, 3], replicas=3)


class TestVersionVectors:
    def test_dominates_reflexive_and_empty(self):
        assert vv_dominates({"1": 2}, {"1": 2})
        assert vv_dominates({"1": 1}, {})
        assert not vv_dominates({}, {"1": 1})

    def test_dominates_componentwise(self):
        assert vv_dominates({"1": 2, "2": 1}, {"1": 1})
        assert not vv_dominates({"1": 2}, {"1": 1, "2": 1})

    def test_merge_takes_max(self):
        assert vv_merge({"1": 2, "2": 1}, {"1": 1, "3": 4}) == {
            "1": 2, "2": 1, "3": 4}

    def test_merge_does_not_mutate_inputs(self):
        a, b = {"1": 1}, {"2": 2}
        vv_merge(a, b)
        assert a == {"1": 1} and b == {"2": 2}


class TestConstruction:
    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore([1, 1, 2])

    def test_rejects_bad_replica_counts(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore([1, 2], replicas=0)
        with pytest.raises(ValueError):
            ReplicatedKVStore([1, 2], replicas=3)

    def test_rejects_bad_no_quorum_mode(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore([1, 2, 3], on_no_quorum="panic")

    def test_initial_view_is_epoch_one(self, kv):
        assert kv.epoch == 1
        assert kv.view == View(epoch=1, members=(1, 2, 3))

    def test_quorum_is_majority(self):
        assert ReplicatedKVStore([1], replicas=1).quorum == 1
        assert ReplicatedKVStore([1, 2], replicas=2).quorum == 2
        assert ReplicatedKVStore([1, 2, 3], replicas=3).quorum == 2


class TestRedisSurface:
    def test_set_get_roundtrip(self, kv):
        kv.set("k", "v")
        assert kv.get("k") == "v"
        assert kv.exists("k")
        assert kv.get("missing") is None

    def test_incr_and_delete(self, kv):
        assert kv.incr("c") == 1
        assert kv.incr("c", 4) == 5
        assert kv.delete("c") is True
        assert kv.delete("c") is False
        assert kv.get("c") is None

    def test_list_ops(self, kv):
        kv.rpush("l", "a", "b")
        kv.lpush("l", "z")
        assert kv.lrange("l", 0, -1) == ["z", "a", "b"]
        assert kv.lpop("l") == "z"
        assert kv.rpop("l") == "b"
        assert kv.llen("l") == 1
        assert kv.lindex("l", 0) == "a"
        assert kv.lrem("l", 0, "a") == 1
        assert kv.llen("l") == 0

    def test_wrong_type_guarded(self, kv):
        kv.set("s", 1)
        with pytest.raises(WrongTypeError):
            kv.rpush("s", 2)
        kv.rpush("l", 1)
        with pytest.raises(WrongTypeError):
            kv.get("l")
        with pytest.raises(WrongTypeError):
            kv.incr("l")

    def test_keys_dbsize_flushall(self, kv):
        for i in range(10):
            kv.set(f"k{i}", i)
        kv.delete("k0")
        assert kv.dbsize() == 9
        assert "k0" not in kv.keys()
        assert kv.keys() == sorted(kv.keys())
        kv.flushall()
        assert kv.dbsize() == 0

    def test_write_lands_on_every_replica(self, kv):
        kv.set("k", "v")
        for nid in kv.replica_set("k"):
            assert kv._copies["k"][nid].state is not None

    def test_lists_are_not_aliased_between_replicas(self, kv):
        kv.rpush("l", 1)
        owners = kv.replica_set("l")
        copies = [kv._copies["l"][nid].state[1] for nid in owners]
        assert copies[0] is not copies[1]


class TestViews:
    def test_staged_view_is_not_visible(self, kv):
        before = {f"k{i}": kv.replica_set(f"k{i}") for i in range(20)}
        staged = kv.propose_view([1, 2, 3, 4])
        assert staged == 2
        assert kv.epoch == 1
        assert kv.members == (1, 2, 3)
        for key, owners in before.items():
            assert kv.replica_set(key) == owners

    def test_commit_installs_staged_view(self, kv):
        kv.propose_view([1, 2, 3, 4])
        assert kv.commit_view() == 2
        assert kv.epoch == 2
        assert kv.members == (1, 2, 3, 4)

    def test_commit_without_proposal_rejected(self, kv):
        with pytest.raises(RuntimeError):
            kv.commit_view()

    def test_epochs_strictly_increase(self, kv):
        seen = [kv.epoch]
        for members in ([1, 2, 3, 4], [1, 2, 3], [1, 2, 3, 5]):
            seen.append(kv.change_view(members))
        assert seen == sorted(set(seen))

    def test_propose_validation(self, kv):
        with pytest.raises(ValueError):
            kv.propose_view([])
        with pytest.raises(ValueError):
            kv.propose_view([1, 1, 2])
        with pytest.raises(ValueError):
            kv.propose_view([1, 2])  # fewer members than replicas

    def test_data_survives_grow_and_shrink(self):
        kv = ReplicatedKVStore([1, 2, 3, 4], replicas=2)
        data = {f"k{i}": i for i in range(60)}
        for key, value in data.items():
            kv.set(key, value)
        kv.change_view([1, 2, 3, 4, 5])
        kv.change_view([2, 3, 5])
        for key, value in data.items():
            assert kv.get(key) == value, key
        audit = kv.audit("after-churn")
        assert audit["lost_acked"] == 0
        assert audit["under_replicated"] == 0

    def test_departed_member_hands_off_its_copies(self):
        kv = ReplicatedKVStore([1, 2, 3, 4], replicas=2)
        for i in range(40):
            kv.set(f"k{i}", i)
        kv.change_view([1, 2, 3])
        # Node 4 left the view; anti-entropy moved its copies to the
        # new owners and dropped the strays.
        leftovers = [k for k, copies in sorted(kv._copies.items())
                     if 4 in copies and copies[4].state is not None
                     and 4 not in kv.replica_set(k)]
        assert leftovers == []


class TestSessions:
    def test_sessions_are_per_client_and_cached(self, kv):
        sess = kv.session("alice")
        assert isinstance(sess, Session)
        assert kv.session("alice") is sess
        assert kv.session("bob") is not sess

    def test_read_your_writes_same_client(self, kv):
        kv.set("k", "v1", client="alice")
        assert kv.get("k", client="alice") == "v1"
        floor = kv.session("alice").floor["k"]
        assert sum(floor.values()) >= 1

    def test_stale_session_read_refused(self):
        blocked = set()
        kv = ReplicatedKVStore(
            [1, 2, 3], replicas=3,
            link_blocked=lambda pair: pair[1] in blocked,
            on_no_quorum="degrade")
        kv.set("k", "v1", client="alice")
        others = [n for n in kv.replica_set("k")[1:]]
        blocked.update(others)
        kv.set("k", "v2", client="alice")  # lands on coordinator only
        kv.crash_node(kv.coordinator_for("k"))
        blocked.clear()
        # alice's floor references the lost write: refuse, don't lie.
        with pytest.raises(StaleSessionError):
            kv.get("k", client="alice")
        # A fresh client has no floor and reads the surviving value.
        assert kv.get("k", client="bob") == "v1"


class TestCrashRepair:
    def test_crash_unknown_node_rejected(self, kv):
        with pytest.raises(KeyError):
            kv.crash_node(99)
        with pytest.raises(KeyError):
            kv.repair_node(99)

    def test_crash_wipes_but_keeps_membership(self, kv):
        kv.set("k", "v")
        kv.crash_node(2)
        assert kv.node_is_down(2)
        assert kv.members == (1, 2, 3)
        assert all(2 not in copies for copies in kv._copies.values())

    def test_write_without_quorum_raises(self, kv):
        kv.crash_node(1)
        kv.crash_node(2)
        with pytest.raises(NoQuorumError) as err:
            kv.set("k", "v")
        assert err.value.got == 1 and err.value.need == 2
        assert kv.stats["writes_failed"] == 1

    def test_push_of_nothing_is_not_a_failed_write(self, kv):
        """RPUSH / LPUSH with no values is a malformed call: it raises
        before any quorum round — no ``NoQuorumError``, no failed-write
        count, no ``kv.write.fail`` — even when no quorum is there."""
        kv.crash_node(1)
        kv.crash_node(2)
        with OBS.bus.capture() as sink:
            for push in (kv.rpush, kv.lpush):
                with pytest.raises(ValueError):
                    push("l")
            events = list(sink.events())
        assert events == []
        assert kv.stats["writes_failed"] == 0

    def test_single_replica_read_is_degraded(self, kv):
        kv.set("k", "v")
        kv.crash_node(kv.replica_set("k")[1])
        kv.crash_node(kv.replica_set("k")[2])
        state, _vv, degraded = kv._read("k")
        assert state == ("string", "v")
        assert degraded is True
        assert kv.stats["reads_degraded"] == 1

    def test_repair_restores_replication(self, kv):
        kv.set("k", "v")
        kv.crash_node(2)
        assert kv.audit("down")["under_replicated"] >= 0
        kv.repair_node(2)
        audit = kv.audit("repaired")
        assert audit["lost_acked"] == 0
        assert audit["under_replicated"] == 0
        assert kv.get("k") == "v"

    def test_read_repair_fixes_stale_replica(self):
        blocked = set()
        kv = ReplicatedKVStore(
            [1, 2, 3], replicas=3,
            link_blocked=lambda pair: pair[1] in blocked)
        kv.set("k", "v1")
        straggler = kv.replica_set("k")[2]
        blocked.add(straggler)
        kv.set("k", "v2")  # quorum of 2, straggler left behind
        blocked.clear()
        assert kv.get("k") == "v2"  # quorum read repairs on the way
        assert kv._copies["k"][straggler].state == ("string", "v2")


class TestTombstones:
    def test_delete_replicates_as_tombstone(self, kv):
        kv.set("k", "v")
        kv.delete("k")
        for nid in kv.replica_set("k"):
            versioned = kv._copies["k"][nid]
            assert versioned.state is None

    def test_stale_replica_cannot_resurrect_deleted_key(self):
        blocked = set()
        kv = ReplicatedKVStore(
            [1, 2, 3], replicas=3,
            link_blocked=lambda pair: pair[1] in blocked)
        kv.set("k", "v")
        straggler = kv.replica_set("k")[2]
        blocked.add(straggler)
        kv.delete("k")  # straggler still holds the live copy
        blocked.clear()
        kv.anti_entropy()  # tombstone dominates: delete propagates
        assert not kv.exists("k")
        assert kv._copies["k"][straggler].state is None


class TestDegradeMode:
    def test_sub_quorum_write_applies_but_is_not_acked(self):
        kv = ReplicatedKVStore([1, 2, 3], replicas=3,
                               on_no_quorum="degrade")
        kv.crash_node(1)
        kv.crash_node(2)
        kv.set("k", "v")
        assert kv.stats["writes_degraded"] == 1
        assert kv.stats["writes_acked"] == 0
        assert "k" not in kv._acked
        assert kv.get("k") == "v"  # single surviving replica, degraded

    def test_zero_reachable_still_fails(self):
        kv = ReplicatedKVStore([1, 2, 3], replicas=3,
                               on_no_quorum="degrade")
        for nid in (1, 2, 3):
            kv.crash_node(nid)
        with pytest.raises(NoQuorumError):
            kv.set("k", "v")
        with pytest.raises(NoQuorumError):
            kv.get("k")


class TestAudit:
    def test_clean_store_audits_clean(self, kv):
        for i in range(20):
            kv.set(f"k{i}", i)
        audit = kv.audit("clean")
        assert audit == {"label": "clean", "epoch": 1, "keys": 20,
                         "lost_acked": 0, "under_replicated": 0}

    def test_lost_acked_detected_and_served_degraded(self):
        kv = ReplicatedKVStore([1, 2, 3, 4], replicas=2)
        kv.set("k", "v")
        owners = kv.replica_set("k")
        for nid in owners:
            kv.crash_node(nid)
        survivors = [n for n in kv.members if n not in owners]
        kv.change_view(survivors)
        assert kv.audit("lost")["lost_acked"] == 1
        # The empty reply is honest: flagged degraded, not "consistent
        # miss".
        state, _vv, degraded = kv._read("k")
        assert state is None and degraded is True
