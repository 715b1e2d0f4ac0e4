"""ElasticCluster under each placement/layout mode pair."""

import pytest

from repro.cluster.cluster import ElasticCluster

MB4 = 4 * 1024 * 1024


@pytest.fixture(params=[
    {"placement_mode": "original"},
    {"layout_mode": "uniform"},
    {"layout_mode": "uniform", "placement_mode": "original"},
    {},
])
def cluster(request):
    return ElasticCluster(n=10, replicas=2, **request.param)


class TestLifecycleUnderAllModes:
    def test_write_resize_reintegrate(self, cluster):
        for oid in range(300):
            cluster.write(oid, MB4)
        cluster.resize(6)
        for oid in range(300, 400):
            cluster.write(oid, MB4)
        cluster.resize(10)
        report = cluster.run_selective_reintegration()
        assert report.caught_up
        assert cluster.ech.dirty.is_empty()
        for oid in cluster.objects:
            assert (set(cluster.stored_locations(oid))
                    == set(cluster.ech.locate(oid).servers))

    def test_reads_available_while_shrunk(self, cluster):
        for oid in range(200):
            cluster.write(oid, MB4)
        cluster.resize(cluster.min_active)
        availability = [cluster.read(oid)[1] for oid in range(200)]
        if cluster.ech.placement_mode == "primary":
            # The primary guarantee: every object keeps an active copy.
            assert all(availability)
        else:
            # The paper's motivation (§II-C): without primary
            # placement, shrinking strands objects whose replicas all
            # sit on powered-down servers.
            assert not all(availability)

    def test_replication_maintained(self, cluster):
        for oid in range(200):
            cluster.write(oid, MB4)
        cluster.resize(5)
        for oid in range(200, 250):
            cluster.write(oid, MB4)
        assert cluster.verify_replication() == []


class TestUniformLayoutProperties:
    def test_distribution_roughly_even(self):
        cl = ElasticCluster(n=10, replicas=2, layout_mode="uniform",
                            placement_mode="original")
        for oid in range(2_000):
            cl.write(oid, MB4)
        counts = cl.replicas_per_rank()
        mean = sum(counts.values()) / 10
        assert max(counts.values()) < 1.35 * mean
        assert min(counts.values()) > 0.65 * mean

    def test_primary_placement_on_uniform_weights(self):
        """Mixing uniform weights with primary placement still pins
        one copy per object to the primaries."""
        cl = ElasticCluster(n=10, replicas=2, layout_mode="uniform",
                            placement_mode="primary")
        for oid in range(500):
            placement = cl.write(oid, MB4)
            primaries = sum(1 for s in placement.servers
                            if cl.ech.is_primary(s))
            assert primaries == 1
