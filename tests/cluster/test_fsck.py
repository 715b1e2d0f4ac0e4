"""The offline consistency checker."""

import pytest

from repro.cluster.cluster import ElasticCluster
from repro.cluster.fsck import check_cluster

MB4 = 4 * 1024 * 1024


@pytest.fixture
def cluster():
    cl = ElasticCluster(n=10, replicas=2)
    for oid in range(200):
        cl.write(oid, MB4)
    return cl


class TestCleanStates:
    def test_fresh_cluster_is_clean(self, cluster):
        report = check_cluster(cluster, expect_quiescent=True)
        assert report.clean, report.summary()
        assert report.objects_checked == 200
        assert report.replicas_checked == 400

    def test_clean_through_resize_cycle(self, cluster):
        cluster.resize(6)
        for oid in range(200, 250):
            cluster.write(oid, MB4)
        assert check_cluster(cluster).clean
        cluster.resize(10)
        cluster.run_selective_reintegration()
        assert check_cluster(cluster, expect_quiescent=True).clean

    def test_clean_after_crash_recovery(self, cluster):
        cluster.fail_server(7)
        report = check_cluster(cluster)
        assert report.clean, report.summary()

    def test_summary_mentions_counts(self, cluster):
        assert "200 objects" in check_cluster(cluster).summary()


class TestDetection:
    def test_detects_lost_replica(self, cluster):
        victim, _ = cluster.objects.replicas_on(5)[0]
        cluster.objects.drop(victim, 5)
        report = check_cluster(cluster)
        kinds = report.by_kind()
        assert kinds.get("replication") == 1
        assert kinds.get("placement", 0) >= 1
        assert any(i.oid == victim for i in report.issues)

    def test_detects_unavailable_object(self, cluster):
        # Strand an object: drop its active replicas while shrunk.
        cluster.resize(6)
        oid = 0
        for rank in list(cluster.stored_locations(oid)):
            if cluster.servers[rank].is_on:
                cluster.objects.drop(oid, rank)
        report = check_cluster(cluster)
        assert any(i.kind == "availability" and i.oid == oid
                   for i in report.issues)

    def test_detects_misplaced_replica(self, cluster):
        oid = 3
        stored = cluster.stored_locations(oid)
        wrong = next(r for r in range(1, 11) if r not in stored)
        cluster.objects.store(oid, MB4, [wrong])
        report = check_cluster(cluster)
        assert any(i.kind == "placement" and i.oid == oid
                   for i in report.issues)

    def test_detects_stale_dirty_entry(self, cluster):
        cluster.ech.dirty.insert(888_888, cluster.current_version)
        report = check_cluster(cluster)
        assert any(i.kind == "dirty" and i.oid == 888_888
                   for i in report.issues)

    def test_quiescence_violation_reported(self, cluster):
        cluster.resize(6)
        cluster.write(500, MB4)
        cluster.resize(10)
        # Dirty entry outstanding at full power.
        report = check_cluster(cluster, expect_quiescent=True)
        assert any(i.kind == "dirty" for i in report.issues)

    def test_not_full_power_quiescence_reported(self, cluster):
        cluster.resize(6)
        report = check_cluster(cluster, expect_quiescent=True)
        assert any("full power" in i.detail for i in report.issues)
