"""ElasticCluster: the full write/resize/re-integrate lifecycle."""

import pytest

from repro.cluster.cluster import ElasticCluster
from repro.cluster.server import CapacityExceeded
from repro.obs.runtime import OBS

MB4 = 4 * 1024 * 1024


class TestWritePath:
    def test_write_places_r_replicas(self, elastic10):
        placement = elastic10.write(1, MB4)
        assert len(placement.servers) == 2
        for rank in placement.servers:
            assert rank in elastic10.stored_locations(1)

    def test_stored_locations(self, elastic10):
        placement = elastic10.write(1, MB4)
        assert set(elastic10.stored_locations(1)) == set(placement.servers)

    def test_full_power_write_is_clean(self, elastic10):
        elastic10.write(1, MB4)
        assert not elastic10.ech.is_dirty(1)
        assert elastic10.ech.dirty.is_empty()

    def test_reduced_power_write_is_dirty(self, elastic10):
        elastic10.resize(6)
        elastic10.write(1, MB4)
        assert elastic10.ech.is_dirty(1)
        assert elastic10.ech.dirty.contains_oid(1)

    def test_rewrite_drops_stale_replicas(self, elastic10):
        elastic10.write(1, MB4)
        elastic10.resize(5)
        elastic10.write(1, MB4)
        stored = elastic10.stored_locations(1)
        assert len(stored) == 2
        assert all(r <= 5 for r in stored)

    def test_replication_always_met(self, loaded_elastic10):
        assert loaded_elastic10.verify_replication() == []


class TestRead:
    def test_read_full_power(self, loaded_elastic10):
        servers, available = loaded_elastic10.read(5)
        assert available
        assert set(servers) == set(loaded_elastic10.stored_locations(5))

    def test_read_after_shrink_still_available(self, loaded_elastic10):
        """The primary-design guarantee: one copy always on an active
        server."""
        loaded_elastic10.resize(loaded_elastic10.min_active)
        for oid in range(0, 1000, 97):
            _, available = loaded_elastic10.read(oid)
            assert available

    def test_read_unknown_raises(self, elastic10):
        with pytest.raises(KeyError):
            elastic10.read(999)

    def test_read_of_offloaded_write(self, elastic10):
        elastic10.resize(5)
        elastic10.write(1, MB4)
        servers, available = elastic10.read(1)
        assert available
        assert all(s <= 5 for s in servers)


class TestResize:
    def test_resize_is_instant_and_versioned(self, elastic10):
        v0 = elastic10.current_version
        elastic10.resize(6)
        assert elastic10.num_active == 6
        assert elastic10.current_version == v0 + 1
        for rank, srv in elastic10.servers.items():
            assert srv.is_on == (rank <= 6)

    def test_data_preserved_across_power_off(self, loaded_elastic10):
        bytes_on_10 = loaded_elastic10.bytes_per_rank()[10]
        assert bytes_on_10 > 0
        loaded_elastic10.resize(6)
        assert loaded_elastic10.bytes_per_rank()[10] == bytes_on_10

    def test_floor_at_primaries(self, elastic10):
        elastic10.resize(0)
        assert elastic10.num_active == elastic10.min_active

    def test_unverified_tracking(self, elastic10):
        elastic10.resize(6)
        assert elastic10.unverified_ranks == set()
        elastic10.resize(9)
        assert elastic10.unverified_ranks == {7, 8, 9}
        elastic10.resize(8)
        assert elastic10.unverified_ranks == {7, 8}


class TestSelectiveReintegration:
    def _cycle(self, cluster, n_clean=200, n_dirty=100):
        for oid in range(n_clean):
            cluster.write(oid, MB4)
        cluster.resize(6)
        for oid in range(n_clean, n_clean + n_dirty):
            cluster.write(oid, MB4)
        cluster.resize(10)

    def test_only_dirty_objects_move(self, elastic10):
        self._cycle(elastic10)
        report = elastic10.run_selective_reintegration()
        dirty_range = set(range(200, 300))
        assert {t.oid for t in report.tasks} <= dirty_range

    def test_layout_restored(self, elastic10):
        self._cycle(elastic10)
        elastic10.run_selective_reintegration()
        for oid in elastic10.objects:
            stored = set(elastic10.stored_locations(oid))
            target = set(elastic10.ech.locate(oid).servers)
            assert stored == target

    def test_dirty_bits_cleared_at_full_power(self, elastic10):
        self._cycle(elastic10)
        elastic10.run_selective_reintegration()
        assert elastic10.ech.dirty.is_empty()
        assert elastic10.unverified_ranks == set()

    def test_backlog_prediction_matches(self, elastic10):
        self._cycle(elastic10)
        predicted = elastic10.selective_backlog_bytes()
        report = elastic10.run_selective_reintegration()
        assert report.bytes_migrated == predicted

    def test_budgeted_rounds_converge(self, elastic10):
        self._cycle(elastic10)
        moved = 0
        for _ in range(1000):
            rep = elastic10.run_selective_reintegration(
                budget_bytes=20 * MB4)
            moved += rep.bytes_migrated
            if rep.caught_up:
                break
        assert elastic10.ech.dirty.is_empty()
        assert elastic10.verify_replication() == []

    def test_replication_never_below_r_during_migration(self, elastic10):
        self._cycle(elastic10)
        reports = elastic10.run_selective_reintegration()
        assert elastic10.verify_replication() == []

    def test_failed_migration_is_retried_not_skipped(self):
        """A migration that raises leaves its entry for the next pass:
        the retry hits the same full server instead of reporting the
        table caught up with the entry still dirty."""
        capacities = [None] * 8
        capacities[4] = 6000
        cluster = ElasticCluster(n=8, replicas=2, B=2000,
                                 capacities=capacities)
        cluster.set_primary_count(4)
        cluster.write_many([0], 0)
        cluster.resize(1)
        cluster.write(0, 4096)
        cluster.resize(5)
        cluster.write(1, 4096)
        for _ in range(2):
            with pytest.raises(CapacityExceeded, match="server 5"):
                cluster.run_selective_reintegration()
        assert [e.oid for e in cluster.ech.dirty.entries()] == [0, 1]
        assert [(t.oid, t.moved_to) for t in
                cluster.plan_selective_reintegration().tasks] == [(0, (5,))]

    def test_failed_pass_closes_its_span_and_is_counted(self):
        """The same failing sequence, traced: each pass that raised
        ends its ``reintegration.pass`` span ``failed`` and publishes
        the entries it did scan.  Only the resize cycle stays open —
        its debt is still pending."""
        OBS.reset()
        capacities = [None] * 8
        capacities[4] = 6000
        with OBS.bus.capture() as sink:
            cluster = ElasticCluster(n=8, replicas=2, B=2000,
                                     capacities=capacities)
            cluster.set_primary_count(4)
            cluster.write_many([0], 0)
            cluster.resize(1)
            cluster.write(0, 4096)
            cluster.resize(5)
            cluster.write(1, 4096)
            for _ in range(2):
                with pytest.raises(CapacityExceeded, match="server 5"):
                    cluster.run_selective_reintegration()
            events = sink.events()
        begun = {e["span_id"]: e["name"] for e in events
                 if e["kind"] == "span.begin"}
        ended = {e["span_id"]: e for e in events if e["kind"] == "span.end"}
        assert sorted(begun[i] for i in set(begun) - set(ended)) == [
            "resize.cycle"]
        passes = [ended[i] for i, name in begun.items()
                  if name == "reintegration.pass"]
        assert [(e["status"], e["entries"]) for e in passes] == [
            ("failed", 1), ("failed", 1)]
        assert OBS.metrics.snapshot()["reintegration.entries"] == 2
        OBS.reset()


class TestFullReintegration:
    def _cycle(self, cluster):
        for oid in range(200):
            cluster.write(oid, MB4)
        cluster.resize(6)
        for oid in range(200, 300):
            cluster.write(oid, MB4)
        cluster.resize(10)

    def test_full_overmigrates_vs_selective(self):
        a = ElasticCluster(n=10, replicas=2)
        b = ElasticCluster(n=10, replicas=2)
        for cl in (a, b):
            self._cycle(cl)
        selective = a.run_selective_reintegration().bytes_migrated
        full = b.run_full_reintegration()
        assert full > selective

    def test_full_restores_layout(self, elastic10):
        self._cycle(elastic10)
        elastic10.run_full_reintegration()
        for oid in elastic10.objects:
            stored = set(elastic10.stored_locations(oid))
            target = set(elastic10.ech.locate(oid).servers)
            assert stored == target
        assert elastic10.ech.dirty.is_empty()

    def test_full_bytes_prediction(self, elastic10):
        self._cycle(elastic10)
        predicted = elastic10.plan_full_reintegration().total_bytes
        assert elastic10.run_full_reintegration() == predicted

    def test_full_includes_unverified_recopies(self, elastic10):
        """Even with *no* dirty data, full re-copies everything mapped
        onto re-powered servers (§II-C's over-migration)."""
        for oid in range(200):
            elastic10.write(oid, MB4)
        elastic10.resize(6)
        elastic10.resize(10)       # nothing written while down
        assert elastic10.selective_backlog_bytes() == 0
        assert elastic10.plan_full_reintegration().total_bytes > 0


class TestAccounting:
    def test_bytes_per_rank_sum(self, loaded_elastic10):
        total = sum(loaded_elastic10.bytes_per_rank().values())
        assert total == 1000 * MB4 * 2

    def test_describe(self, elastic10):
        assert "ElasticCluster" in elastic10.describe()


class TestFullSelectiveComposition:
    """Full and selective re-integration must compose: a partial-power
    full pass may relocate clean objects, but it records them dirty so
    a later selective pass can finish the job (the stateful property
    test found the original violation)."""

    def test_partial_full_then_selective_restores_layout(self):
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(200):
            cl.write(oid, MB4)
        cl.resize(5)
        cl.resize(7)                 # partial re-power
        moved = cl.run_full_reintegration()
        # Relocated objects are now dirty-tracked.
        assert not cl.ech.dirty.is_empty()
        cl.resize(10)
        report = cl.run_selective_reintegration()
        assert report.caught_up
        assert cl.ech.dirty.is_empty()
        for oid in cl.objects:
            assert (set(cl.stored_locations(oid))
                    == set(cl.ech.locate(oid).servers))

    def test_full_at_full_power_needs_no_followup(self):
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(200):
            cl.write(oid, MB4)
        cl.resize(6)
        cl.resize(10)
        cl.run_full_reintegration()
        assert cl.ech.dirty.is_empty()
        for oid in cl.objects:
            assert (set(cl.stored_locations(oid))
                    == set(cl.ech.locate(oid).servers))
