"""Checker mutation tests: every kv consistency checker must fire on
a deliberately broken store variant — and stay silent on the honest
store driven through the same workload.  The mutants override exactly
the hook points :mod:`repro.kvstore.replicated` documents for them."""

import pytest

from repro.kvstore.replicated import ReplicatedKVStore, _Versioned
from repro.obs import OBS, check_events


def violations_of(driver, store):
    """Run *driver(store)* under event capture; return the names of
    the checkers that fired."""
    with OBS.bus.capture() as sink:
        driver(store)
        events = list(sink.events())
    return {v.checker for v in check_events(events)}


# ----------------------------------------------------------------------
# mutants (each breaks exactly one documented hook, plus — for the
# stale-read one — the two safeguards that would otherwise catch it)
# ----------------------------------------------------------------------
class DropWriteStore(ReplicatedKVStore):
    """Acknowledges writes without storing them anywhere: the classic
    lost-ack bug."""

    def _replicate(self, key, versioned, targets):
        return list(targets)           # ack everyone, store nothing


class StaleReadStore(ReplicatedKVStore):
    """Serves the *oldest* reachable reply and skips both safeguards
    (the durability-ledger degraded flag and the session floor) that
    would make the honest store refuse or flag the read."""

    def _choose_reply(self, replies):
        from repro.kvstore.replicated import _vv_sortkey
        worst = replies[0][1]
        for _nid, versioned in replies[1:]:
            if _vv_sortkey(versioned.vv) < _vv_sortkey(worst.vv):
                worst = versioned
        return worst

    def _record_ack(self, key, vv):
        pass                           # blinds the degraded-read flag

    def _enforce_floor(self, key, vv, session):
        pass                           # never refuses a stale read


class SkipRepairStore(ReplicatedKVStore):
    """Never re-replicates: view commits and node repairs leave the
    replication factor wherever the fault left it."""

    def _anti_entropy_pass(self, reason="manual"):
        return 0


class BadEpochStore(ReplicatedKVStore):
    """Reuses the current epoch for every proposal instead of
    advancing it."""

    def _next_epoch(self):
        return self._epoch


# ----------------------------------------------------------------------
# drivers (seedless and deterministic: fixed op sequences)
# ----------------------------------------------------------------------
def drive_write_audit(store):
    for i in range(6):
        store.set(f"k{i}", i, client="alice")
    store.audit("final")


def drive_stale_read(store, blocked):
    store.set("k", "v1", client="alice")
    blocked.add(store.replica_set("k")[2])
    store.set("k", "v2", client="alice")   # straggler left on v1
    store.get("k", client="alice")         # sees v2's vector
    blocked.clear()
    store.get("k", client="alice")         # straggler back in quorum
    store.audit("final")


def drive_crash_repair(store):
    for i in range(8):
        store.set(f"k{i}", i, client="alice")
    store.crash_node(2)
    store.repair_node(2)
    store.audit("final")


def drive_view_churn(store):
    store.set("k", "v", client="alice")
    store.change_view([1, 2, 3, 4])
    store.change_view([1, 2, 3])
    store.audit("final")


# ----------------------------------------------------------------------
# each mutant is flagged; the honest store never is
# ----------------------------------------------------------------------
class TestMutantsAreFlagged:
    def test_dropped_ack_trips_no_acked_write_lost(self):
        fired = violations_of(drive_write_audit,
                              DropWriteStore([1, 2, 3], replicas=3))
        assert "kv-no-acked-write-lost" in fired

    def test_stale_read_trips_both_session_guarantees(self):
        blocked = set()
        store = StaleReadStore(
            [1, 2, 3], replicas=3,
            link_blocked=lambda pair: pair[1] in blocked)
        fired = violations_of(lambda s: drive_stale_read(s, blocked),
                              store)
        assert "kv-read-your-writes" in fired
        assert "kv-monotonic-reads" in fired

    def test_skipped_repair_trips_replication_restored(self):
        fired = violations_of(drive_crash_repair,
                              SkipRepairStore([1, 2, 3], replicas=3))
        assert "kv-replication-factor-restored" in fired

    def test_reused_epoch_trips_view_epoch_monotonic(self):
        fired = violations_of(drive_view_churn,
                              BadEpochStore([1, 2, 3], replicas=3))
        assert "view-epoch-monotonic" in fired


class TestHonestStorePasses:
    @pytest.mark.parametrize("driver", [
        drive_write_audit, drive_crash_repair, drive_view_churn,
    ], ids=["write-audit", "crash-repair", "view-churn"])
    def test_clean_on_honest_store(self, driver):
        assert violations_of(driver,
                             ReplicatedKVStore([1, 2, 3])) == set()

    def test_clean_on_honest_store_with_straggler(self):
        blocked = set()
        store = ReplicatedKVStore(
            [1, 2, 3], replicas=3,
            link_blocked=lambda pair: pair[1] in blocked)
        fired = violations_of(lambda s: drive_stale_read(s, blocked),
                              store)
        assert fired == set()


class TestMutantMechanics:
    """The mutants break what they claim to break (guards the tests
    above against silently-neutered mutants)."""

    def test_drop_write_store_stores_nothing(self):
        store = DropWriteStore([1, 2, 3], replicas=3)
        store.set("k", "v")
        assert store._copies == {}     # no node holds anything

    def test_stale_read_store_serves_old_value(self):
        blocked = set()
        store = StaleReadStore(
            [1, 2, 3], replicas=3,
            link_blocked=lambda pair: pair[1] in blocked)
        store.set("k", "v1")
        blocked.add(store.replica_set("k")[2])
        store.set("k", "v2")
        blocked.clear()
        assert store.get("k") == "v1"

    def test_skip_repair_store_leaves_node_empty(self):
        store = SkipRepairStore([1, 2, 3], replicas=3)
        store.set("k", "v")
        store.crash_node(2)
        store.repair_node(2)
        assert all(2 not in copies for copies in store._copies.values())

    def test_bad_epoch_store_freezes_epoch(self):
        store = BadEpochStore([1, 2, 3], replicas=3)
        first = store.epoch
        store.change_view([1, 2, 3, 4])
        assert store.epoch == first


def test_versioned_copy_is_independent():
    original = _Versioned(vv={"1": 1}, state=("list", [1, 2]))
    clone = original.copy()
    clone.state[1].append(3)
    clone.vv["1"] = 9
    assert original.state[1] == [1, 2]
    assert original.vv == {"1": 1}
