"""The holder index: ``oid -> ascending ranks holding a replica``.

Maintained by ``StorageServer.store_replica`` / ``drop_replica`` (the
only two places a replica map changes) and shared with the owning
cluster, which answers ``stored_locations`` and drops a write's surplus
from it in O(r) instead of asking every server.
"""

import hashlib
import io

import pytest

from repro.cluster import (
    CapacityExceeded,
    ElasticCluster,
    OriginalCHCluster,
    StorageServer,
    check_cluster,
    check_holder_index,
    scan_holders,
)
from repro.experiments.three_phase import run_three_phase
from repro.faults.harness import run_chaos
from repro.obs.runtime import OBS
from repro.obs.trace import JSONLSink

MB4 = 4 * 1024 * 1024


class TestServerMaintainsIndex:
    def test_servers_sharing_an_index_keep_holders_ascending(self):
        index = {}
        srv = {r: StorageServer(r, holder_index=index) for r in (1, 2, 3)}
        srv[3].store_replica(7, 10)
        srv[1].store_replica(7, 10)
        srv[2].store_replica(7, 10)
        assert index == {7: (1, 2, 3)}
        srv[2].drop_replica(7)
        assert index == {7: (1, 3)}

    def test_overwrite_does_not_index_twice(self):
        index = {}
        srv = StorageServer(4, holder_index=index)
        srv.store_replica(1, 10)
        srv.store_replica(1, 99)
        assert index == {1: (4,)}

    def test_zero_size_replica_is_a_replica(self):
        index = {}
        srv = StorageServer(4, holder_index=index)
        srv.store_replica(1, 0)
        srv.store_replica(1, 0)
        assert index == {1: (4,)}
        assert srv.drop_replica(1) == 0
        assert index == {}

    def test_drop_of_absent_oid_is_a_no_op(self):
        index = {}
        a = StorageServer(1, holder_index=index)
        b = StorageServer(2, holder_index=index)
        a.store_replica(5, 10)
        assert b.drop_replica(5) == 0      # held elsewhere, not here
        assert b.drop_replica(6) == 0      # held nowhere
        assert index == {5: (1,)}
        assert (a.used_bytes, b.used_bytes) == (10, 0)

    def test_refused_write_is_not_indexed(self):
        index = {}
        srv = StorageServer(1, capacity_bytes=5, holder_index=index)
        with pytest.raises(CapacityExceeded):
            srv.store_replica(1, 10)
        srv.power_off()
        with pytest.raises(RuntimeError):
            srv.store_replica(2, 1)
        assert index == {}


class TestClusterAnswersFromIndex:
    def test_stored_locations_ascending_and_empty_for_unknown(self):
        cl = ElasticCluster(n=10, replicas=3)
        cl.write(1, MB4)
        stored = cl.stored_locations(1)
        assert stored == tuple(sorted(cl.ech.locate(1).servers))
        assert cl.stored_locations(404) == ()

    def test_reaching_through_servers_stays_in_sync(self):
        cl = ElasticCluster(n=10, replicas=2)
        cl.write(1, MB4)
        kept, dropped = cl.stored_locations(1)
        cl.servers[dropped].drop_replica(1)
        cl.servers[10].store_replica(1, MB4)
        assert cl.stored_locations(1) == tuple(sorted((kept, 10)))
        assert check_holder_index(cl) == []

    def test_holder_index_view_is_read_only(self):
        cl = ElasticCluster(n=4, replicas=2)
        cl.write(1, MB4)
        with pytest.raises(TypeError):
            cl.holder_index()[1] = ()

    def test_write_refused_between_replicas_stays_consistent(self):
        # A state the generated machine reaches, pinned: the second
        # replica's server is full, so write() raises after storing
        # the first.
        cl = ElasticCluster(n=4, replicas=2,
                            capacities=[None, 10, 10, 10])
        with pytest.raises(CapacityExceeded):
            cl.write(0, 100)
        assert cl.stored_locations(0) == (1,)
        assert scan_holders(cl) == {0: (1,)}

    def test_crash_write_then_late_commit(self):
        # A state the generated machine reaches, pinned: objects
        # overwritten between the crash and its recovery commit.
        cl = ElasticCluster(n=6, replicas=2)
        for oid in range(40):
            cl.write(oid, MB4)
        work = cl.crash_server(3)
        for oid in list(work.lost)[:5]:
            cl.write(oid, 2 * MB4)
        cl.commit_crash_recovery(work, strict=False)
        cl.repair_server(3)
        assert dict(cl.holder_index()) == scan_holders(cl)
        assert cl.verify_replication() == []

    def test_original_cluster_membership_churn(self):
        cl = OriginalCHCluster(n=6, replicas=2, vnodes_per_server=50)
        for oid in range(60):
            cl.write(oid, MB4)
        cl.remove_server(6)
        cl.remove_server(2)
        cl.add_server(6)
        assert dict(cl.holder_index()) == scan_holders(cl)
        assert check_holder_index(cl) == []


class TestFsckIndexOracle:
    @pytest.fixture
    def cluster(self):
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(50):
            cl.write(oid, MB4)
        return cl

    def test_scan_holders_is_the_index(self, cluster):
        assert scan_holders(cluster) == dict(cluster.holder_index())

    def test_missing_holder_reported(self, cluster):
        a, b = cluster.stored_locations(3)
        cluster._holders[3] = (a,)
        issues = check_cluster(cluster).issues
        assert [(i.kind, i.oid) for i in issues
                if i.kind == "index"] == [("index", 3)]

    def test_missing_entry_reported(self, cluster):
        del cluster._holders[3]
        assert [i.oid for i in check_holder_index(cluster)] == [3]

    def test_extra_holder_reported(self, cluster):
        cluster._holders[3] = tuple(sorted(
            set(cluster._holders[3]) | {10, 9}))
        assert [i.oid for i in check_holder_index(cluster)] == [3]

    def test_entry_for_unheld_oid_reported(self, cluster):
        cluster._holders[777] = (1,)
        assert [i.oid for i in check_holder_index(cluster)] == [777]

    def test_misordered_holders_reported(self, cluster):
        cluster._holders[3] = cluster._holders[3][::-1]
        assert [i.oid for i in check_holder_index(cluster)] == [3]

    def test_replica_map_edited_past_the_server_api_reported(self, cluster):
        rank = cluster.stored_locations(3)[0]
        del cluster.servers[rank]._replicas[3]
        # The other audits read the replica maps, not the stale index,
        # so the loss itself is still seen.
        kinds = check_cluster(cluster).by_kind()
        assert kinds["index"] == 1
        assert kinds["replication"] == 1
        assert cluster.stored_locations(3) != scan_holders(cluster)[3]


def _counted(monkeypatch):
    """Count calls into the three replica-map entry points."""
    calls = {"has_replica": 0, "store_replica": 0, "drop_replica": 0}
    for name in calls:
        original = getattr(StorageServer, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(StorageServer, name, counting)
    return calls


class TestBookkeepingDoesNotGrowWithClusterSize:
    """No timing: count the calls a fixed workload makes into the
    replica maps.  Before the index every object touched asked all n
    servers ``has_replica``."""

    OBJECTS = 200

    def _workload_calls(self, n, monkeypatch):
        cl = ElasticCluster(n=n, replicas=2)
        calls = _counted(monkeypatch)
        for oid in range(self.OBJECTS):
            cl.write(oid, MB4)
        cl.resize(n - n // 5)
        for oid in range(self.OBJECTS, self.OBJECTS + 40):
            cl.write(oid, MB4)
        cl.resize(n)
        cl.run_full_reintegration()
        assert cl.verify_replication() == []
        assert cl.replication_audit()["under_replicated"] == 0
        monkeypatch.undo()
        assert check_holder_index(cl) == []
        return calls

    def test_call_counts_independent_of_n(self, monkeypatch):
        small = self._workload_calls(50, monkeypatch)
        large = self._workload_calls(500, monkeypatch)
        objects = self.OBJECTS + 40
        for calls in (small, large):
            # r stores per write plus the re-copies of one full pass;
            # nothing proportional to n.
            assert calls["has_replica"] == 0
            assert calls["store_replica"] <= 3 * 2 * objects
            assert calls["drop_replica"] <= 2 * objects
        # The share of objects a 20 % resize touches is the same at
        # both sizes (hash noise aside); a term linear in n would show
        # as a 10x gap.
        total_small = sum(small.values())
        total_large = sum(large.values())
        assert total_large <= 1.5 * total_small

    def test_original_cluster_write(self, monkeypatch):
        totals = []
        for n in (20, 200):
            cl = OriginalCHCluster(n=n, replicas=2, vnodes_per_server=20)
            calls = _counted(monkeypatch)
            for oid in range(self.OBJECTS):
                cl.write(oid, MB4)
            monkeypatch.undo()
            assert calls["has_replica"] == 0
            totals.append(sum(calls.values()))
        assert totals[0] == totals[1] == 2 * self.OBJECTS


# sha256 of the JSONL trace each run emitted at the parent commit
# (3cbd403, brute-force scans): the index must be invisible in traces.
PARENT_TRACES = {
    "full":
        "4c9335d9e866c5089a048eb690ef24d55f35524199dd34c26744625ef38e57ed",
    "selective":
        "6dc18d68423cbab0bf34353fa0fca1f169c834cee42a0c28d354bf6a4c11ebfb",
    "original":
        "ba4095818e8cd7eb01f44dfdfc1421a2cd10e1d20fc430146a5c6dfb3e14046c",
    "chaos":
        "30f24a2d66e8862052b4b6b238b4b994172423cdd92859c0a1c09822339b4725",
}


def _trace_sha256(run):
    OBS.reset()
    buf = io.StringIO()
    sink = OBS.bus.attach(JSONLSink(buf))
    try:
        run()
    finally:
        OBS.bus.detach(sink)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestTraceIdentityWithParentCommit:
    @pytest.mark.parametrize("mode", ["full", "selective", "original"])
    def test_three_phase(self, mode):
        digest = _trace_sha256(
            lambda: run_three_phase(mode=mode, n=20, scale=0.02))
        assert digest == PARENT_TRACES[mode]

    def test_chaos(self):
        digest = _trace_sha256(
            lambda: run_chaos(seed=7, n=10, scale=0.05))
        assert digest == PARENT_TRACES["chaos"]
