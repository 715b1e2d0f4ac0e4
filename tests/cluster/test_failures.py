"""Failure injection: crashes lose data; the versioning + dirty-table
machinery must absorb them."""

import pytest

from repro.cluster.cluster import ElasticCluster

MB4 = 4 * 1024 * 1024


@pytest.fixture
def cluster():
    cl = ElasticCluster(n=10, replicas=2)
    for oid in range(500):
        cl.write(oid, MB4)
    return cl


class TestFailServer:
    def test_replicas_rerecovered(self, cluster):
        held = cluster.replicas_per_rank()[7]
        assert held > 0
        moved = cluster.fail_server(7)
        assert moved == held * MB4
        assert cluster.verify_replication(require_active=True) == []

    def test_crash_loses_local_data(self, cluster):
        cluster.fail_server(7)
        assert cluster.replicas_per_rank()[7] == 0
        assert not cluster.servers[7].is_on

    def test_new_version_excludes_failed_rank(self, cluster):
        v0 = cluster.current_version
        cluster.fail_server(7)
        assert cluster.current_version == v0 + 1
        assert not cluster.ech.membership.is_active(7)

    def test_affected_objects_become_dirty(self, cluster):
        affected = {oid for oid, _ in cluster.objects.replicas_on(7)}
        cluster.fail_server(7)
        for oid in affected:
            assert cluster.ech.dirty.contains_oid(oid)

    def test_reads_still_available(self, cluster):
        cluster.fail_server(7)
        for oid in range(0, 500, 41):
            _, available = cluster.read(oid)
            assert available

    def test_double_failure_tolerated_sequentially(self, cluster):
        """r=2 survives any sequence of single failures with recovery
        between them."""
        cluster.fail_server(7)
        cluster.fail_server(4)
        assert cluster.verify_replication(require_active=True) == []

    def test_already_failed_rejected(self, cluster):
        cluster.fail_server(7)
        with pytest.raises(ValueError):
            cluster.ech.mark_failed(7)

    def test_unknown_rank_rejected(self, cluster):
        with pytest.raises(KeyError):
            cluster.ech.mark_failed(42)

    def test_primary_failure_degrades_but_survives(self, cluster):
        """Losing a primary breaks the one-copy-on-primary guarantee
        (placements degrade) but not availability."""
        cluster.fail_server(1)
        assert cluster.verify_replication(require_active=True) == []
        placement = cluster.ech.locate(12345)
        assert 1 not in placement.servers


class TestRepair:
    def test_repair_then_resize_restores_layout(self, cluster):
        full_placements = {
            oid: set(cluster.ech.locate(oid, 1).servers)
            for oid in range(0, 500, 7)
        }
        cluster.fail_server(7)
        cluster.repair_server(7)
        cluster.resize(9)           # version without 7... now includes it
        cluster.resize(10)
        report = cluster.run_selective_reintegration()
        assert report.caught_up
        assert cluster.ech.dirty.is_empty()
        for oid, expected in full_placements.items():
            assert set(cluster.stored_locations(oid)) == expected

    def test_resize_skips_failed_rank(self, cluster):
        cluster.fail_server(9)
        cluster.resize(10)
        # The chain takes the first 10 non-failed ranks; only 9 exist.
        assert cluster.ech.num_active == 9
        assert not cluster.ech.membership.is_active(9)

    def test_repair_requires_failure(self, cluster):
        with pytest.raises(ValueError):
            cluster.repair_server(5)

    def test_failed_rank_rejoins_chain_after_repair(self, cluster):
        cluster.fail_server(9)
        cluster.repair_server(9)
        cluster.resize(10)
        assert cluster.ech.membership.is_active(9)
        # It rejoined empty; after reintegration it holds data again.
        cluster.run_selective_reintegration()
        assert cluster.replicas_per_rank()[9] > 0


class TestFailureDuringReducedPower:
    def test_crash_while_shrunk(self, cluster):
        cluster.resize(6)
        for oid in range(500, 560):
            cluster.write(oid, MB4)
        moved = cluster.fail_server(3)
        assert moved > 0
        # While shrunk the invariant is availability (>= 1 active
        # copy — the primary guarantee), not r active copies: clean
        # objects legitimately keep replicas on powered-down servers.
        for oid in range(0, 560, 23):
            _, available = cluster.read(oid)
            assert available, oid
        # Every object still has r copies *somewhere* (crash recovery
        # restored the count).
        assert cluster.verify_replication(require_active=False) == []
        # Recover everything: repair, grow, reintegrate.
        cluster.repair_server(3)
        cluster.resize(10)
        cluster.run_selective_reintegration()
        assert cluster.ech.dirty.is_empty()
        assert cluster.verify_replication() == []


class TestRepairGuard:
    """A repair must not race an in-flight transfer that still touches
    the rank (the fault-injection layer pins endpoints via
    ``acquire_ranks``)."""

    def test_repair_rejected_while_rank_pinned(self, cluster):
        cluster.crash_server(7)
        cluster.acquire_ranks({7, 3})
        with pytest.raises(RuntimeError, match="in-flight"):
            cluster.repair_server(7)
        # The failed rank is still failed: nothing was half-applied.
        assert 7 in cluster.ech.failed
        cluster.release_ranks({7, 3})
        cluster.repair_server(7)
        assert 7 not in cluster.ech.failed

    def test_pins_are_refcounted(self, cluster):
        cluster.crash_server(7)
        cluster.acquire_ranks({7})
        cluster.acquire_ranks({7})
        cluster.release_ranks({7})
        with pytest.raises(RuntimeError, match="1 in-flight"):
            cluster.repair_server(7)
        cluster.release_ranks({7})
        cluster.repair_server(7)

    def test_unpinned_ranks_unaffected(self, cluster):
        cluster.crash_server(7)
        cluster.acquire_ranks({3, 5})       # transfer elsewhere
        cluster.repair_server(7)            # fine
        assert 7 not in cluster.ech.failed
