"""Fluid flows and the flow set."""

import math

import pytest

from repro.simulation.flows import FluidFlow, FlowSet


class TestFluidFlow:
    def test_finite_flow_progress(self):
        f = FluidFlow("m", {"d": 1.0}, total_bytes=100.0)
        assert f.remaining == 100.0
        f.progressed = 30.0
        assert f.remaining == 70.0
        assert not f.done

    def test_done(self):
        f = FluidFlow("m", {"d": 1.0}, total_bytes=100.0)
        f.progressed = 100.0
        assert f.done

    def test_stream_never_done(self):
        f = FluidFlow("c", {"d": 1.0})
        f.progressed = 1e12
        assert not f.done
        assert f.remaining == math.inf

    def test_demand_capped_by_remaining(self):
        f = FluidFlow("m", {"d": 1.0}, total_bytes=50.0)
        assert f.demand_for(1.0) == 50.0
        assert f.demand_for(10.0) == 5.0

    def test_demand_capped_by_rate(self):
        f = FluidFlow("m", {"d": 1.0}, total_bytes=1e9, rate_cap=25.0)
        assert f.demand_for(1.0) == 25.0


class TestFlowSet:
    def test_advance_shares_capacity(self):
        fs = FlowSet()
        fs.add(FluidFlow("a", {"d": 1.0}))
        fs.add(FluidFlow("b", {"d": 1.0}))
        achieved = fs.advance(1.0, {"d": 100.0})
        assert achieved == {"a": pytest.approx(50.0),
                            "b": pytest.approx(50.0)}

    def test_same_name_flows_aggregate(self):
        fs = FlowSet()
        fs.add(FluidFlow("m", {"d": 1.0}))
        fs.add(FluidFlow("m", {"d": 1.0}))
        achieved = fs.advance(1.0, {"d": 100.0})
        assert achieved == {"m": pytest.approx(100.0)}

    def test_completion_callback_and_retirement(self):
        fs = FlowSet()
        done = []
        fs.add(FluidFlow("m", {"d": 1.0}, total_bytes=80.0,
                         on_complete=lambda f: done.append(f.name)))
        fs.advance(1.0, {"d": 100.0})
        assert done == ["m"]
        assert len(fs) == 0

    def test_partial_progress_keeps_flow(self):
        fs = FlowSet()
        fs.add(FluidFlow("m", {"d": 1.0}, total_bytes=500.0))
        fs.advance(1.0, {"d": 100.0})
        assert len(fs) == 1

    def test_freed_capacity_goes_to_streams(self):
        fs = FlowSet()
        fs.add(FluidFlow("m", {"d": 1.0}, total_bytes=20.0))
        fs.add(FluidFlow("c", {"d": 1.0}))
        achieved = fs.advance(1.0, {"d": 100.0})
        assert achieved["m"] == pytest.approx(20.0)
        assert achieved["c"] == pytest.approx(80.0)

    def test_last_rate_recorded(self):
        fs = FlowSet()
        f = fs.add(FluidFlow("c", {"d": 1.0}))
        fs.advance(1.0, {"d": 40.0})
        assert f.last_rate == pytest.approx(40.0)

    def test_empty_set(self):
        assert FlowSet().advance(1.0, {"d": 100.0}) == {}

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            FlowSet().advance(0.0, {})

    def test_by_name_and_remove(self):
        fs = FlowSet()
        f = fs.add(FluidFlow("x", {"d": 1.0}))
        assert fs.by_name("x") == [f]
        fs.remove(f)
        assert len(fs) == 0


class TestFlowSetIndex:
    """The tombstone position index behind O(1) remove/interrupt must
    preserve deterministic insertion order through storms and
    compaction."""

    def test_remove_preserves_order(self):
        fs = FlowSet()
        flows = [fs.add(FluidFlow(f"f{i}", {"d": 1.0})) for i in range(10)]
        fs.remove(flows[3])
        fs.remove(flows[7])
        expected = [f for i, f in enumerate(flows) if i not in (3, 7)]
        assert list(fs) == expected
        assert len(fs) == 8

    def test_interrupt_storm_preserves_order(self):
        fs = FlowSet()
        flows = [fs.add(FluidFlow(f"f{i}", {"d": 1.0}))
                 for i in range(100)]
        wasted = sum(fs.interrupt(f) for f in flows[2::5])
        assert wasted == 0.0
        survivors = [f for i, f in enumerate(flows) if i % 5 != 2]
        assert list(fs) == survivors
        assert len(fs) == 80

    def test_compaction_keeps_order_and_index(self):
        fs = FlowSet()
        flows = [fs.add(FluidFlow(f"f{i}", {"d": 1.0})) for i in range(100)]
        # Remove 60 (more than half, above the compaction floor) in a
        # scattered pattern, forcing at least one compaction.
        removed = set(range(0, 100, 5)) | set(range(1, 81, 2))
        for i in sorted(removed):
            fs.remove(flows[i])
        survivors = [f for i, f in enumerate(flows) if i not in removed]
        assert list(fs) == survivors
        # The index stays consistent after compaction: removal and
        # re-adding still work.
        fs.remove(survivors[0])
        fs.add(survivors[0])
        assert list(fs) == survivors[1:] + [survivors[0]]

    def test_duplicate_add_rejected(self):
        fs = FlowSet()
        f = fs.add(FluidFlow("x", {"d": 1.0}))
        with pytest.raises(ValueError):
            fs.add(f)

    def test_remove_unknown_rejected(self):
        fs = FlowSet()
        with pytest.raises(ValueError):
            fs.remove(FluidFlow("ghost", {"d": 1.0}))

    def test_generation_bumps_on_membership_changes(self):
        fs = FlowSet()
        g0 = fs.generation
        f = fs.add(FluidFlow("x", {"d": 1.0}))
        assert fs.generation > g0
        g1 = fs.generation
        fs.remove(f)
        assert fs.generation > g1
        g2 = fs.generation
        done = fs.add(FluidFlow("m", {"d": 1.0}, total_bytes=10.0))
        fs.advance(1.0, {"d": 100.0})     # completes and retires "m"
        assert done.done
        assert fs.generation > g2

    def test_iteration_snapshot_allows_mutation(self):
        fs = FlowSet()
        flows = [fs.add(FluidFlow(f"f{i}", {"d": 1.0})) for i in range(5)]
        seen = []
        for f in fs:
            seen.append(f)
            fs.remove(f)
        assert seen == flows
        assert len(fs) == 0
