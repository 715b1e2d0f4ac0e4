"""Migration planning."""

import pytest

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.migration import (
    addition_migration_plan,
    full_reintegration_plan,
)

MB4 = 4 * 1024 * 1024


class TestFullReintegrationPlan:
    def test_plan_matches_run(self):
        a = ElasticCluster(n=10, replicas=2)
        b = ElasticCluster(n=10, replicas=2)
        for cl in (a, b):
            for oid in range(200):
                cl.write(oid, MB4)
            cl.resize(6)
            for oid in range(200, 250):
                cl.write(oid, MB4)
            cl.resize(10)
        plan = full_reintegration_plan(a)
        moved = b.run_full_reintegration()
        assert plan.total_bytes == moved

    def test_empty_when_layout_clean(self, loaded_elastic10):
        plan = full_reintegration_plan(loaded_elastic10)
        assert plan.total_bytes == 0
        assert plan.num_objects == 0

    def test_bytes_per_destination(self, elastic10):
        for oid in range(100):
            elastic10.write(oid, MB4)
        elastic10.resize(6)
        for oid in range(100, 150):
            elastic10.write(oid, MB4)
        elastic10.resize(10)
        plan = full_reintegration_plan(elastic10)
        per_dest = plan.bytes_per_destination()
        assert sum(per_dest.values()) == plan.total_bytes
        # The re-powered ranks are destinations.
        assert any(r in per_dest for r in (7, 8, 9, 10))


class TestAdditionPlan:
    def test_single_server_plan_matches_actual(self, loaded_original10):
        loaded_original10.remove_server(10)
        plan = addition_migration_plan(loaded_original10, [10])
        assert plan.total_bytes == loaded_original10.add_server(10)

    def test_batched_plan_bounds_sequential_additions(self,
                                                      loaded_original10):
        """Adding two servers one at a time migrates at least as much
        as the batched plan: the intermediate ring moves some objects
        twice."""
        loaded_original10.remove_server(10)
        loaded_original10.remove_server(9)
        plan = addition_migration_plan(loaded_original10, [9, 10])
        actual = loaded_original10.add_server(9) + \
            loaded_original10.add_server(10)
        assert plan.total_bytes <= actual

    def test_plan_is_pure(self, loaded_original10):
        loaded_original10.remove_server(10)
        before = loaded_original10.replicas_per_rank()
        addition_migration_plan(loaded_original10, [10])
        assert loaded_original10.replicas_per_rank() == before

    def test_member_rank_rejected(self, loaded_original10):
        with pytest.raises(KeyError):
            addition_migration_plan(loaded_original10, [5])
