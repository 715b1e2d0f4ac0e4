"""Dynamic primary-count re-layout (the SpringFS-style extension)."""

import pytest

from repro.cluster.cluster import ElasticCluster
from repro.core.dynamic_primaries import (
    apply_relayout,
    plan_primary_resize,
)
from repro.core.elastic import ElasticConsistentHash

MB4 = 4 * 1024 * 1024


class TestPlan:
    def test_plan_is_pure(self, ech10):
        before_weights = ech10.layout.weight_map()
        plan_primary_resize(ech10, 5)
        assert ech10.p == 2
        assert ech10.layout.weight_map() == before_weights

    def test_weight_changes_reported(self, ech10):
        plan = plan_primary_resize(ech10, 5)
        # Every rank changes weight when p goes 2 -> 5 (primaries from
        # B/2 to B/5, secondary denominators shift).
        assert 1 in plan.weight_changes
        old, new = plan.weight_changes[1]
        assert old == 5_000 and new == 2_000

    def test_moved_fraction_in_unit_range(self, ech10):
        plan = plan_primary_resize(ech10, 5, sample_oids=range(500))
        assert 0.0 < plan.moved_fraction <= 1.0

    def test_min_active_tracks_p(self, ech10):
        plan = plan_primary_resize(ech10, 5)
        assert plan.old_min_active == 2
        assert plan.new_min_active == 5

    def test_bigger_change_moves_more(self, ech10):
        small = plan_primary_resize(ech10, 3, sample_oids=range(1000))
        big = plan_primary_resize(ech10, 8, sample_oids=range(1000))
        assert big.moved_fraction > small.moved_fraction

    def test_out_of_range_rejected(self, ech10):
        with pytest.raises(ValueError):
            plan_primary_resize(ech10, 0)
        with pytest.raises(ValueError):
            plan_primary_resize(ech10, 11)


class TestApply:
    def test_roles_and_weights_switch(self, ech10):
        apply_relayout(ech10, 5)
        assert ech10.p == 5
        assert ech10.min_active == 5
        assert ech10.is_primary(5)
        assert ech10.ring.weight_of(1) == 2_000

    def test_invariant_holds_after_relayout(self, ech10):
        apply_relayout(ech10, 5)
        for oid in range(300):
            res = ech10.locate(oid)
            assert sum(1 for s in res.servers if ech10.is_primary(s)) == 1

    def test_requires_full_power(self, ech10):
        ech10.set_active(6)
        with pytest.raises(RuntimeError):
            apply_relayout(ech10, 5)

    def test_requires_empty_dirty_table(self, ech10):
        ech10.set_active(6)
        ech10.record_write(1)
        ech10.set_active(10)
        with pytest.raises(RuntimeError):
            apply_relayout(ech10, 5)

    def test_uniform_layout_mode_supported(self):
        ech = ElasticConsistentHash(n=10, layout_mode="uniform")
        apply_relayout(ech, 5)
        assert ech.p == 5
        # Uniform weights stay uniform across the change.
        assert len({ech.ring.weight_of(r) for r in range(1, 11)}) == 1


class TestClusterIntegration:
    def test_set_primary_count_migrates_and_restores_layout(self):
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(500):
            cl.write(oid, MB4)
        moved = cl.set_primary_count(5)
        assert moved > 0
        for oid in cl.objects:
            assert (set(cl.stored_locations(oid))
                    == set(cl.ech.locate(oid).servers))
        assert cl.verify_replication() == []

    def test_write_capacity_grows_with_p(self):
        """The §I motivation: more primaries = more write spindles."""
        from repro.simulation.bandwidth import FlowSpec, max_min_fair
        from repro.simulation.iomodel import (
            client_coefficients,
            replica_load_fractions,
        )

        def capacity(cl):
            fr = replica_load_fractions(
                lambda o: cl.ech.locate(o).servers, range(9000, 11000))
            coeffs = client_coefficients(fr, 2, 1.0)
            return max_min_fair([FlowSpec(coefficients=coeffs)],
                                {r: 64e6 for r in range(1, 11)})[0]

        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(200):
            cl.write(oid, MB4)
        before = capacity(cl)
        cl.set_primary_count(5)
        after = capacity(cl)
        assert after > before * 1.3

    def test_shrink_p_after_grow_roundtrip(self):
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(300):
            cl.write(oid, MB4)
        cl.set_primary_count(5)
        cl.set_primary_count(2)
        assert cl.ech.p == 2
        for oid in cl.objects:
            assert (set(cl.stored_locations(oid))
                    == set(cl.ech.locate(oid).servers))

    def test_elasticity_traded_for_writes(self):
        """After growing p, the cluster cannot shrink as far — the
        other side of the SpringFS trade-off."""
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(100):
            cl.write(oid, MB4)
        cl.set_primary_count(5)
        cl.resize(2)
        assert cl.num_active == 5  # floored at the new p
