"""Cross-module integration scenarios: the whole system exercised the
way a deployment would."""

import pytest

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.core.layout import CapacityPlan, EqualWorkLayout
from repro.metrics.timeline import StepSeries
from repro.simulation.engine import Simulator
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import (
    IOModel,
    client_coefficients,
    replica_load_fractions,
)

MB4 = 4 * 1024 * 1024


class TestElasticLifecycle:
    """A multi-day-style lifecycle: write, shrink, write, grow part
    way, shrink again, grow to full — the dirty table must stay
    coherent throughout."""

    def test_multi_version_lifecycle(self):
        cl = ElasticCluster(n=10, replicas=2)
        oid = 0

        def write(n):
            nonlocal oid
            for _ in range(n):
                cl.write(oid, MB4)
                oid += 1

        write(300)               # v1: full power
        cl.resize(6)             # v2
        write(100)
        cl.resize(4)             # v3: deeper
        write(50)
        cl.resize(8)             # v4: partial re-power
        rep1 = cl.run_selective_reintegration()
        assert rep1.caught_up
        assert rep1.entries_removed == 0       # not full power yet
        write(50)                # writes at 8 active are also dirty
        cl.resize(10)            # v5: full power
        rep2 = cl.run_selective_reintegration()
        assert rep2.caught_up
        assert cl.ech.dirty.is_empty()
        # Every object sits exactly at its current placement.
        for oid in cl.objects:
            assert (set(cl.stored_locations(oid))
                    == set(cl.ech.locate(oid).servers))
        assert cl.verify_replication() == []

    def test_reads_always_available_during_lifecycle(self):
        cl = ElasticCluster(n=10, replicas=2)
        for oid in range(200):
            cl.write(oid, MB4)
        for k in (6, 4, 2, 7, 10):
            cl.resize(k)
            for oid in range(0, 200, 13):
                _, available = cl.read(oid)
                assert available, (k, oid)

    def test_machine_hours_accounting_with_resizes(self):
        cl = ElasticCluster(n=10, replicas=2)
        active = StepSeries()
        active.append(0.0, cl.num_active)
        schedule = [(3600.0, 6), (7200.0, 2), (10800.0, 10)]
        for t, k in schedule:
            cl.resize(k)
            active.append(t, cl.num_active)
        hours = active.integral(0.0, 14400.0) / 3600.0
        # 10 + 6 + 2 + 10 server-hours over four hours.
        assert hours == pytest.approx(28.0)


class TestCapacityIntegration:
    def test_capacity_plan_fits_actual_distribution(self):
        layout = EqualWorkLayout.create(10)
        total_data = 400 * MB4 * 2  # 400 objects, 2-way
        plan = CapacityPlan.for_layout(layout,
                                       total_capacity=total_data * 4)
        cl = ElasticCluster(
            n=10, replicas=2,
            capacities=list(plan.capacities))
        for oid in range(400):
            cl.write(oid, MB4)   # raises CapacityExceeded if plan bad
        util = plan.utilisation(cl.bytes_per_rank())
        assert max(util.values()) <= 1.0


class TestBaselineVsElasticUnderSimulator:
    def test_migration_flow_steals_less_with_rate_limit(self):
        """Re-integration rate limiting trades duration for foreground
        throughput, under the real fair-share model."""
        def run(rate_cap):
            io = IOModel(lambda: {r: 64e6 for r in range(1, 11)}, dt=1.0)
            io.flows.add(FluidFlow("client",
                                   {r: 0.12 for r in range(1, 11)}))
            io.flows.add(FluidFlow("migration",
                                   {r: 0.1 for r in range(1, 11)},
                                   total_bytes=5e9, rate_cap=rate_cap))
            io.run(60.0)
            _, thr = io.series("client")
            return sum(thr) / len(thr)

        limited = run(50e6)
        unlimited = run(float("inf"))
        assert limited > unlimited

    def test_simulator_event_driven_resize(self):
        """Drive resizes from the DES engine and observe capacity
        changes in the fluid model.  Uses the uniform-layout flavour:
        with equal-work weights the write path is primary-bound and a
        resize would (correctly) not change peak write throughput."""
        cl = ElasticCluster(n=10, replicas=2, layout_mode="uniform",
                            placement_mode="original")
        for oid in range(100):
            cl.write(oid, MB4)

        def caps():
            return {r: 64e6 for r in cl.servers
                    if cl.servers[r].is_on}

        io = IOModel(caps, dt=1.0)

        def refresh_flow():
            for f in io.flows.by_name("client"):
                io.flows.remove(f)
            fractions = replica_load_fractions(
                lambda o: cl.ech.locate(o).servers, range(5000, 6000))
            io.flows.add(FluidFlow(
                "client", client_coefficients(fractions, 2, 1.0)))

        refresh_flow()
        sim = Simulator()

        def shrink():
            cl.resize(4)
            refresh_flow()

        sim.schedule(10.0, shrink)
        for t in range(1, 31):
            sim.run_until(float(t))
            io.step(float(t))
        _, thr = io.series("client")
        # Aggregate write throughput must drop when 6 of 10 uniform
        # servers vanish at t=10.
        assert max(thr[12:]) < max(thr[:10])


class TestOriginalBaselineLifecycle:
    def test_shrink_grow_shrink_consistency(self):
        cl = OriginalCHCluster(n=8, replicas=2, vnodes_per_server=128)
        for oid in range(300):
            cl.write(oid, MB4)
        cl.remove_server(8)
        cl.remove_server(7)
        for oid in range(300, 350):
            cl.write(oid, MB4)
        cl.add_server(7)
        cl.remove_server(6)
        cl.add_server(6)
        cl.add_server(8)
        assert cl.verify_replication() == []
        for oid in cl.objects:
            assert (set(cl.stored_locations(oid))
                    == set(cl.placement(oid).servers))
