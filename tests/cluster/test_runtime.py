"""The cluster runtime's pieces, one at a time (the generated
interleavings live in ``test_runtime_stateful.py``)."""

import math

import numpy as np
import pytest

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.runtime import ClusterRuntime
from repro.experiments import run_three_phase
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.hashring.ring import HashRing
from repro.obs.runtime import OBS
from repro.simulation.engine import Simulator


@pytest.fixture(params=["elastic", "original"])
def cluster(request):
    if request.param == "elastic":
        return ElasticCluster(6, replicas=2, B=600, disk_bandwidth=80.0)
    return OriginalCHCluster(6, replicas=2, vnodes_per_server=40,
                             disk_bandwidth=80.0)


def shrink(cluster):
    """Take rank 6 out, whichever way this flavour does it."""
    if isinstance(cluster, ElasticCluster):
        cluster.resize(5)
    else:
        cluster.remove_server(6)


class TestClusterMembers:
    """What the runtime asks of a cluster, on both flavours."""

    def test_active_ranks_ascending_and_follow_membership(self, cluster):
        assert cluster.active_ranks() == [1, 2, 3, 4, 5, 6]
        shrink(cluster)
        assert cluster.active_ranks() == [1, 2, 3, 4, 5]

    def test_membership_token_moves_with_the_active_set(self, cluster):
        before = cluster.membership_token
        cluster.write(1, 10)
        assert cluster.membership_token == before   # writes: no change
        shrink(cluster)
        assert cluster.membership_token > before

    def test_placement_bulk_places_on_active_ranks(self, cluster):
        shrink(cluster)
        bulk = cluster.placement_bulk(range(200))
        assert bulk.all_ok and bulk.servers.shape == (200, 2)
        assert set(bulk.servers.ravel().tolist()) <= {1, 2, 3, 4, 5}


def scalar_successor_calls(monkeypatch):
    """Positions the ring's scalar successor is asked for from now on —
    an oid placed without a memo entry shows up here."""
    calls = []
    real = HashRing.successor_slot
    monkeypatch.setattr(HashRing, "successor_slot",
                        lambda ring, pos: calls.append(pos) or real(ring, pos))
    return calls


class TestPrehash:
    def test_prehashed_oids_place_like_the_bulk_path(self, cluster,
                                                     monkeypatch):
        """Hashed before a membership change, placed after it: a slot
        is the ring's alone, so the memo holds under any membership."""
        cluster.prehash(range(100, 400))
        cluster.prehash(np.arange(1_000, 1_100))
        shrink(cluster)
        calls = scalar_successor_calls(monkeypatch)
        oids = [*range(100, 400), *range(1_000, 1_100)]
        for oid, row in zip(oids, cluster.placement_bulk(oids).rows()):
            assert cluster.write(oid, 10).servers == tuple(row)
        assert calls == []

    @pytest.mark.parametrize("mode", ["selective", "original"])
    def test_a_three_phase_run_writes_only_prehashed_oids(self, mode,
                                                          monkeypatch):
        calls = scalar_successor_calls(monkeypatch)
        result = run_three_phase(mode, scale=0.05)
        assert result.finished and calls == []


class TestCapacities:
    def test_read_from_the_servers_in_rank_order(self, cluster):
        cluster.servers[2].disk_bandwidth = 30.0     # one slower disk
        rt = ClusterRuntime(cluster, 1.0)
        assert list(rt.capacities().items()) == [
            (1, 80.0), (2, 30.0), (3, 80.0), (4, 80.0), (5, 80.0),
            (6, 80.0)]
        shrink(cluster)
        assert 6 not in rt.capacities()

    def test_injector_windows_scale_them_and_move_the_token(self, cluster):
        sim = Simulator()
        injector = FaultInjector(FaultPlan(events=[FaultEvent(
            kind="slow_disk", rank=3, time=1.0, duration=2.0,
            factor=0.25)]))
        injector.arm(sim, lambda action: None)
        rt = ClusterRuntime(cluster, 1.0, sim=sim, injector=injector)
        token = rt.capacity_token()
        sim.run_until(1.0)
        assert rt.capacities()[3] == 20.0 and rt.capacity_token() != token
        token = rt.capacity_token()
        sim.run_until(3.0)
        assert rt.capacities()[3] == 80.0 and rt.capacity_token() != token

    def test_token_without_injector_is_the_clusters(self, cluster):
        rt = ClusterRuntime(cluster, 1.0)
        assert rt.capacity_token() == cluster.membership_token


class TestFractions:
    def test_probed_once_per_active_set(self, cluster, monkeypatch):
        rt = ClusterRuntime(cluster, 1.0)
        calls = []
        bulk = cluster.placement_bulk
        monkeypatch.setattr(
            cluster, "placement_bulk",
            lambda oids: calls.append(len(oids)) or bulk(oids))
        full = rt.fractions(300)
        assert rt.fractions(300) is full and calls == [300]
        assert sum(full.values()) == pytest.approx(1.0)
        shrink(cluster)
        assert 6 not in rt.fractions(300) and calls == [300, 300]

    def test_even_coefficients(self, cluster):
        rt = ClusterRuntime(cluster, 1.0)
        assert rt.even_coefficients([2, 4]) == {2: 0.5, 4: 0.5}
        shrink(cluster)
        assert rt.even_coefficients() == {r: 0.2 for r in range(1, 6)}


class TestReintegrationFlow:
    def test_nothing_to_move_no_flow(self):
        rt = ClusterRuntime(ElasticCluster(6, replicas=2, B=600), 1.0)
        assert rt.add_reintegration_flow(0) is None
        assert rt.reintegrate_selective(50.0) is None
        assert len(rt.io.flows) == 0

    def test_selective_pass_is_charged_to_its_resize_cycle(self):
        OBS.reset()
        cluster = ElasticCluster(6, replicas=2, B=600)
        rt = ClusterRuntime(cluster, 1.0)
        cluster.resize(3)
        for oid in range(40):
            cluster.write(oid, 100)
        backlog_at_3 = cluster.selective_backlog_bytes()
        cluster.resize(6)
        cycle = cluster.reintegration_cycle
        assert cycle is not None and backlog_at_3 == 0
        backlog = cluster.selective_backlog_bytes()
        flow = rt.reintegrate_selective(50.0)
        # The pass itself is instant (and closed the cycle); its bytes
        # ride a rate-limited flow parented to that cycle.
        assert cluster.reintegration_cycle is None
        assert cluster.ech.dirty.is_empty()
        assert (flow.name, flow.total_bytes, flow.rate_cap) == (
            "migration", float(backlog), 50.0)
        assert flow.span.parent_id == cycle.span_id
        assert flow.coefficients == rt.even_coefficients()
        assert math.isinf(rt.add_reintegration_flow(10).rate_cap)
        OBS.reset()
