"""IOModel and the placement→load bridge."""

import numpy as np
import pytest

from repro.core.elastic import ElasticConsistentHash
from repro.obs.runtime import OBS
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import (
    IOModel,
    client_coefficients,
    replica_load_fractions,
    replica_load_fractions_from_matrix,
)


def scalar_fractions_from_matrix(servers):
    """The reference first-encounter probe loop the vectorised
    implementation must reproduce exactly (values and key order)."""
    flat = np.asarray(servers).ravel().tolist()
    counts, order = {}, []
    total = 0
    for s in flat:
        if s < 0:
            continue
        if s not in counts:
            counts[s] = 0
            order.append(s)
        counts[s] += 1
        total += 1
    if total == 0:
        raise ValueError("probe produced no placements")
    return {s: counts[s] / total for s in order}


class TestReplicaLoadFractions:
    def test_fractions_sum_to_one(self, ech10):
        fracs = replica_load_fractions(
            lambda oid: ech10.locate(oid).servers, range(2000))
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_equal_work_concentrates_on_primaries(self, ech10):
        fracs = replica_load_fractions(
            lambda oid: ech10.locate(oid).servers, range(2000))
        # One of two replicas always lands on a primary: primaries
        # carry half the replica traffic.
        assert fracs[1] + fracs[2] == pytest.approx(0.5, abs=0.03)

    def test_uniform_layout_spreads_evenly(self):
        ech = ElasticConsistentHash(n=10, layout_mode="uniform",
                                    placement_mode="original")
        fracs = replica_load_fractions(
            lambda oid: ech.locate(oid).servers, range(3000))
        assert max(fracs.values()) < 0.16

    def test_empty_probe_rejected(self):
        with pytest.raises(ValueError):
            replica_load_fractions(lambda oid: [], [])


class TestReplicaLoadFractionsFromMatrix:
    def test_matches_scalar_probe_on_real_placement(self, ech10):
        matrix = ech10.locate_bulk(range(2000)).servers
        vectorised = replica_load_fractions_from_matrix(matrix)
        reference = scalar_fractions_from_matrix(matrix)
        # Equality of values AND first-encounter key order.
        assert list(vectorised.items()) == list(reference.items())

    def test_matches_probe_function(self, ech10):
        matrix = ech10.locate_bulk(range(2000)).servers
        probe = replica_load_fractions(
            lambda oid: ech10.locate(oid).servers, range(2000))
        assert replica_load_fractions_from_matrix(matrix) == probe

    def test_randomized_matrices_with_unplaceable_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            shape = (int(rng.integers(1, 400)), int(rng.integers(1, 4)))
            matrix = rng.integers(-1, 20, size=shape)
            if (matrix < 0).all():
                continue
            vectorised = replica_load_fractions_from_matrix(matrix)
            reference = scalar_fractions_from_matrix(matrix)
            assert list(vectorised.items()) == list(reference.items())

    def test_all_unplaceable_rejected(self):
        with pytest.raises(ValueError):
            replica_load_fractions_from_matrix(np.full((4, 2), -1))

    def test_keys_are_python_ints(self):
        fracs = replica_load_fractions_from_matrix(np.array([[0, 1]]))
        assert all(type(k) is int for k in fracs)


class TestClientCoefficients:
    def test_pure_write_amplifies_by_r(self):
        coeffs = client_coefficients({1: 0.5, 2: 0.5}, replicas=2,
                                     write_ratio=1.0)
        assert coeffs == {1: pytest.approx(1.0), 2: pytest.approx(1.0)}

    def test_pure_read_no_amplification(self):
        coeffs = client_coefficients({1: 0.5, 2: 0.5}, replicas=3,
                                     write_ratio=0.0)
        assert sum(coeffs.values()) == pytest.approx(1.0)

    def test_mixed_ratio(self):
        coeffs = client_coefficients({1: 1.0}, replicas=2,
                                     write_ratio=0.2)
        assert coeffs[1] == pytest.approx(1.2)

    def test_zero_fraction_dropped(self):
        coeffs = client_coefficients({1: 1.0, 2: 0.0}, replicas=2)
        assert 2 not in coeffs

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            client_coefficients({1: 1.0}, 2, write_ratio=1.5)


class TestIOModel:
    def test_step_records_samples(self):
        io = IOModel(lambda: {"s": 100.0}, dt=1.0)
        io.flows.add(FluidFlow("client", {"s": 1.0}))
        io.step(1.0)
        io.step(2.0)
        times, vals = io.series("client")
        assert times == [1.0, 2.0]
        assert vals == [pytest.approx(100.0)] * 2

    def test_capacity_changes_take_effect(self):
        caps = {"value": 100.0}
        io = IOModel(lambda: {"s": caps["value"]}, dt=1.0)
        io.flows.add(FluidFlow("client", {"s": 1.0}))
        io.step(1.0)
        caps["value"] = 40.0
        io.step(2.0)
        _, vals = io.series("client")
        assert vals == [pytest.approx(100.0), pytest.approx(40.0)]

    def test_run_loop_with_on_tick(self):
        io = IOModel(lambda: {"s": 10.0}, dt=1.0)
        io.flows.add(FluidFlow("client", {"s": 1.0}))
        seen = []
        io.run(5.0, on_tick=seen.append)
        assert len(seen) == 5
        assert len(io.samples) == 5

    def test_total_moved(self):
        io = IOModel(lambda: {"s": 50.0}, dt=1.0)
        io.flows.add(FluidFlow("m", {"s": 1.0}, total_bytes=120.0))
        io.run(5.0)
        assert io.total_moved("m") == pytest.approx(120.0)

    def test_partial_last_tick_advances_by_its_length(self):
        # run(2.5) at dt=1 ends with a half tick: flows, the tick event
        # and total_moved must all see 0.5 s, not a full dt.
        io = IOModel(lambda: {"a": 10.0}, dt=1.0)
        stream = io.flows.add(FluidFlow("s", {"a": 1.0}))
        with OBS.bus.capture() as sink:
            io.run(2.5)
        assert [t for t, _ in io.samples] == [1.0, 2.0, 2.5]
        assert stream.progressed == 25.0
        assert io.total_moved("s") == 25.0
        assert [e["dt"] for e in sink.events()
                if e["kind"] == "engine.tick"] == [1.0, 1.0, 0.5]
        # A further whole run keeps counting full ticks.
        io.run(2.0, start=2.5)
        assert stream.progressed == 45.0
        assert io.total_moved("s") == 45.0

    def test_absent_flow_series_is_zero(self):
        io = IOModel(lambda: {"s": 50.0}, dt=1.0)
        io.step(1.0)
        _, vals = io.series("ghost")
        assert vals == [0.0]

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            IOModel(lambda: {}, dt=0.0)
