"""OriginalCHCluster: the §II-C baseline semantics."""

import pytest

from repro.cluster.cluster import OriginalCHCluster

MB4 = 4 * 1024 * 1024


class TestWriteRead:
    def test_write_places_replicas(self, original10):
        placement = original10.write(1, MB4)
        assert len(set(placement.servers)) == 2
        for rank in placement.servers:
            assert original10.servers[rank].has_replica(1)

    def test_read(self, loaded_original10):
        servers, available = loaded_original10.read(7)
        assert available

    def test_read_unknown(self, original10):
        with pytest.raises(KeyError):
            original10.read(1)

    def test_roughly_uniform_distribution(self, loaded_original10):
        counts = loaded_original10.replicas_per_rank()
        mean = sum(counts.values()) / len(counts)
        assert max(counts.values()) / mean < 1.6
        assert min(counts.values()) / mean > 0.5


class TestRemoval:
    def test_removal_rereplicates_before_leaving(self, loaded_original10):
        held = loaded_original10.servers[10].num_replicas
        assert held > 0
        moved = loaded_original10.remove_server(10)
        assert moved > 0
        assert 10 not in loaded_original10.ring
        assert loaded_original10.servers[10].num_replicas == 0
        assert loaded_original10.verify_replication() == []

    def test_removed_server_powered_off(self, loaded_original10):
        loaded_original10.remove_server(10)
        assert not loaded_original10.servers[10].is_on

    def test_cannot_break_replication_level(self):
        cl = OriginalCHCluster(n=2, replicas=2, vnodes_per_server=50)
        cl.write(1, MB4)
        with pytest.raises(RuntimeError):
            cl.remove_server(2)

    def test_remove_unknown_rejected(self, original10):
        with pytest.raises(KeyError):
            original10.remove_server(99)

    def test_sequential_removals_accumulate(self, loaded_original10):
        loaded_original10.remove_server(10)
        loaded_original10.remove_server(9)
        assert loaded_original10.num_active == 8
        assert loaded_original10.verify_replication() == []
        assert loaded_original10.rereplicated_bytes > 0


class TestAddition:
    def test_add_migrates_onto_empty_server(self, loaded_original10):
        loaded_original10.remove_server(10)
        moved = loaded_original10.add_server(10)
        assert moved > 0
        assert loaded_original10.servers[10].num_replicas > 0
        assert loaded_original10.verify_replication() == []

    def test_add_existing_rejected(self, original10):
        with pytest.raises(KeyError):
            original10.add_server(5)

    def test_addition_plan_matches_actual(self, loaded_original10):
        loaded_original10.remove_server(10)
        predicted = loaded_original10.plan_addition([10]).total_bytes
        actual = loaded_original10.add_server(10)
        assert actual == predicted

    def test_addition_estimate_leaves_state_untouched(self,
                                                      loaded_original10):
        loaded_original10.remove_server(10)
        before = loaded_original10.replicas_per_rank()
        loaded_original10.plan_addition([10])
        assert loaded_original10.replicas_per_rank() == before
        assert 10 not in loaded_original10.ring

    def test_roundtrip_restores_layout(self, loaded_original10):
        """Remove + re-add: every object's placement is satisfied."""
        loaded_original10.remove_server(10)
        loaded_original10.add_server(10)
        for obj in loaded_original10.catalog:
            stored = set(loaded_original10.stored_locations(obj.oid))
            target = set(loaded_original10.placement(obj.oid).servers)
            assert stored == target


class TestElasticComparison:
    def test_baseline_moves_more_data_on_resize_cycle(self):
        """The headline claim: for the same shrink/grow cycle the
        baseline pays re-replication + full migration, the elastic
        cluster pays only the offloaded data."""
        from repro.cluster.cluster import ElasticCluster
        base = OriginalCHCluster(n=10, replicas=2, vnodes_per_server=200)
        elastic = ElasticCluster(n=10, replicas=2)
        for oid in range(500):
            base.write(oid, MB4)
            elastic.write(oid, MB4)

        # Baseline: remove 2, write a little, add 2 back.
        base_moved = base.remove_server(10) + base.remove_server(9)
        for oid in range(500, 550):
            base.write(oid, MB4)
        base_moved += base.add_server(9) + base.add_server(10)

        # Elastic: same cycle.
        elastic.resize(8)
        for oid in range(500, 550):
            elastic.write(oid, MB4)
        elastic.resize(10)
        elastic_moved = elastic.run_selective_reintegration().bytes_migrated

        assert elastic_moved < base_moved / 3
