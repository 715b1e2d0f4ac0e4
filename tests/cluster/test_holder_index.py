"""Holders: which ranks hold a replica of an object.

The cluster's :class:`~repro.cluster.objects.ObjectTable` records each
replica once, with the rank that holds it, so ``stored_locations`` and
the write path's surplus drop answer in O(r) from the object's own
record instead of asking every server.  The bookkeeping it replaced
(``_reference_table``) is the oracle the histories below are compared
against.
"""

import hashlib
import io

import pytest

from repro.cluster import (
    CapacityExceeded,
    ElasticCluster,
    ObjectTable,
    OriginalCHCluster,
    StorageServer,
    check_cluster,
)
from repro.experiments.three_phase import run_three_phase
from repro.faults.harness import run_chaos
from repro.obs.runtime import OBS
from repro.obs.trace import JSONLSink

from ._reference_table import observe, reference_cluster

MB4 = 4 * 1024 * 1024


def servers(*ranks, **kwargs):
    return {r: StorageServer(r, **kwargs) for r in ranks}


class TestServerMaintainsIndex:
    def test_servers_sharing_an_index_keep_holders_ascending(self):
        table = ObjectTable(servers(1, 2, 3))
        table.store(7, 10, [3])
        table.store(7, 10, [1])
        table.store(7, 10, [2])
        assert table.holders(7) == (1, 2, 3)
        table.drop(7, 2)
        assert table.holders(7) == (1, 3)

    def test_overwrite_does_not_index_twice(self):
        table = ObjectTable(servers(4))
        table.store(1, 10, [4])
        table.store(1, 99, [4])
        assert table.holders(1) == (4,)
        assert table.replicas_per_rank() == {4: 1}

    def test_zero_size_replica_is_a_replica(self):
        table = ObjectTable(servers(4))
        table.store(1, 0, [4])
        table.store(1, 0, [4])
        assert table.holders(1) == (4,)
        assert table.drop(1, 4) == 0
        assert table.holders(1) == ()
        assert table.replicas_per_rank() == {4: 0}

    def test_drop_of_absent_oid_is_a_no_op(self):
        table = ObjectTable(servers(1, 2))
        table.store(5, 10, [1])
        assert table.drop(5, 2) == 0       # held elsewhere, not here
        assert table.drop(6, 2) == 0       # held nowhere
        assert table.holders(5) == (1,)
        assert table.bytes_per_rank() == {1: 10, 2: 0}

    def test_refused_write_is_not_indexed(self):
        srv = StorageServer(1, capacity_bytes=5)
        table = ObjectTable({1: srv})
        with pytest.raises(CapacityExceeded):
            table.store(1, 10, [1])
        srv.power_off()
        with pytest.raises(RuntimeError):
            table.store(2, 1, [1])
        assert table.holders(1) == table.holders(2) == ()
        assert table.bytes_per_rank() == {1: 0}


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
        cl.objects.drop(1, dropped)
        cl.objects.store(1, MB4, [10])
        assert cl.stored_locations(1) == tuple(sorted((kept, 10)))
        assert cl.replication_audit()["under_replicated"] == 0

    def test_write_refused_between_replicas_stays_consistent(self):
        # A state the generated machine reaches, pinned: the second
        # replica's server is full, so write() raises after storing
        # the first.
        kwargs = dict(n=4, replicas=2, capacities=[None, 10, 10, 10])
        sides = (ElasticCluster(**kwargs),
                 reference_cluster(ElasticCluster, **kwargs))
        for cl in sides:
            with pytest.raises(CapacityExceeded):
                cl.write(0, 100)
            assert cl.stored_locations(0) == (1,)
        assert observe(sides[0]) == observe(sides[1])

    def test_crash_write_then_late_commit(self):
        # A state the generated machine reaches, pinned: objects
        # overwritten between the crash and its recovery commit.
        def history(cl):
            for oid in range(40):
                cl.write(oid, MB4)
            work = cl.crash_server(3)
            for oid in list(work.lost)[:5]:
                cl.write(oid, 2 * MB4)
            cl.commit_crash_recovery(work, strict=False)
            cl.repair_server(3)
            assert cl.verify_replication() == []
            return observe(cl)

        assert (history(ElasticCluster(n=6, replicas=2))
                == history(reference_cluster(ElasticCluster, n=6,
                                             replicas=2)))

    def test_original_cluster_membership_churn(self):
        def history(cl):
            for oid in range(60):
                cl.write(oid, MB4)
            cl.remove_server(6)
            cl.remove_server(2)
            cl.add_server(6)
            return observe(cl)

        kwargs = dict(n=6, replicas=2, vnodes_per_server=50)
        assert (history(OriginalCHCluster(**kwargs))
                == history(reference_cluster(OriginalCHCluster, **kwargs)))


class TestFsckIndexOracle:
    """fsck reads the object table itself: a record that lost, gained
    or emptied its holders is reported by the paper's audits."""

    @pytest.fixture
    def cluster(self):
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(50):
            cl.write(oid, MB4)
        return cl

    def test_scan_holders_is_the_index(self, cluster):
        report = check_cluster(cluster)
        assert report.clean
        assert report.objects_checked == len(cluster.objects) == 50
        assert (report.replicas_checked
                == sum(cluster.replicas_per_rank().values()) == 100)

    def test_missing_holder_reported(self, cluster):
        cluster.objects.drop(3, cluster.stored_locations(3)[1])
        issues = check_cluster(cluster).issues
        assert [(i.kind, i.oid) for i in issues
                if i.kind == "replication"] == [("replication", 3)]

    def test_extra_holder_reported(self, cluster):
        extra = [r for r in (9, 10) if r not in cluster.stored_locations(3)]
        cluster.objects.store(3, MB4, extra)
        issues = check_cluster(cluster).issues
        assert [(i.kind, i.oid) for i in issues] == [("placement", 3)]

    def test_entry_for_unheld_oid_reported(self, cluster):
        for rank in cluster.stored_locations(3):
            cluster.objects.drop(3, rank)
        assert cluster.replication_audit()["lost"] == 1
        kinds = {(i.kind, i.oid) for i in check_cluster(cluster).issues}
        assert {("replication", 3), ("availability", 3)} <= kinds


def _counted(monkeypatch):
    """Count the replicas the table stores and drops, and its scans."""
    calls = {"replicas_on": 0, "store": 0, "drop": 0}
    store, drop, scan = (ObjectTable.store, ObjectTable.drop,
                         ObjectTable.replicas_on)

    def counting_store(self, oid, size, ranks):
        calls["store"] += len(ranks)
        return store(self, oid, size, ranks)

    def counting_drop(self, *args):
        calls["drop"] += 1
        return drop(self, *args)

    def counting_scan(self, *args):
        calls["replicas_on"] += 1
        return scan(self, *args)

    monkeypatch.setattr(ObjectTable, "store", counting_store)
    monkeypatch.setattr(ObjectTable, "drop", counting_drop)
    monkeypatch.setattr(ObjectTable, "replicas_on", counting_scan)
    return calls


class TestBookkeepingDoesNotGrowWithClusterSize:
    """No timing: count the replicas a fixed workload lands and drops,
    and the table scans it makes.  Before the holder index every object
    touched asked all n servers whether they held it."""

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
        return calls

    def test_call_counts_independent_of_n(self, monkeypatch):
        small = self._workload_calls(50, monkeypatch)
        large = self._workload_calls(500, monkeypatch)
        objects = self.OBJECTS + 40
        for calls in (small, large):
            # r stores per write plus the re-copies of one full pass;
            # nothing proportional to n, and no write scans the table.
            assert calls["replicas_on"] == 0
            assert calls["store"] <= 3 * 2 * objects
            assert calls["drop"] <= 2 * objects
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
            assert calls["replicas_on"] == 0
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
