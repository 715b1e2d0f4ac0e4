"""Departure recovery planning (the baseline's clean-up work)."""

import pytest

from repro.cluster.recovery import plan_departure_recovery

MB4 = 4 * 1024 * 1024


class TestPlan:
    def test_plan_covers_every_held_object(self, loaded_original10):
        held = set(loaded_original10.servers[10].replicas())
        plan = plan_departure_recovery(loaded_original10, 10)
        planned = {t.oid for t in plan.tasks}
        # Every object that loses a replica and needs a new home is in
        # the plan (some may already have a surviving replica at the
        # new placement).
        assert planned <= held
        assert plan.num_objects > 0

    def test_plan_does_not_mutate(self, loaded_original10):
        before = loaded_original10.replicas_per_rank()
        plan_departure_recovery(loaded_original10, 10)
        assert loaded_original10.replicas_per_rank() == before
        assert 10 in loaded_original10.ring

    def test_plan_matches_actual_removal(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        moved = loaded_original10.remove_server(10)
        assert moved == plan.total_bytes

    def test_destinations_never_departing_server(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        for t in plan.tasks:
            assert 10 not in t.moved_to

    def test_sources_hold_surviving_copies(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        for t in plan.tasks:
            for src in t.from_servers:
                assert loaded_original10.servers[src].has_replica(t.oid)

    def test_unknown_server_rejected(self, loaded_original10):
        with pytest.raises(KeyError):
            plan_departure_recovery(loaded_original10, 99)


class TestTimeEstimates:
    def test_serialized_scales_with_bytes(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        assert plan.serialized_seconds(100e6) == pytest.approx(
            plan.total_bytes / 100e6)

    def test_fraction_scales_time(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        assert plan.serialized_seconds(100e6, 0.5) == pytest.approx(
            2 * plan.serialized_seconds(100e6, 1.0))

    def test_bad_bandwidth_rejected(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        with pytest.raises(ValueError):
            plan.serialized_seconds(0)
        with pytest.raises(ValueError):
            plan.serialized_seconds(100e6, 0)

    def test_bytes_per_destination_sums_to_total(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        assert sum(plan.bytes_per_destination().values()) == plan.total_bytes


class TestRateGuard:
    """A degraded-bandwidth fault can drive a capacity to zero; the
    estimators must reject it with a clear error instead of dividing
    by it."""

    @pytest.mark.parametrize("bandwidth", [
        0, 0.0, -1.0, -100e6, float("nan"), float("inf"), "fast", None,
    ])
    def test_bad_bandwidth_rejected(self, loaded_original10, bandwidth):
        plan = plan_departure_recovery(loaded_original10, 10)
        with pytest.raises(ValueError, match="per_server_bandwidth"):
            plan.serialized_seconds(bandwidth)

    @pytest.mark.parametrize("fraction", [
        0.0, -0.5, 1.5, float("nan"), float("inf"), "half", None,
    ])
    def test_bad_fraction_rejected(self, loaded_original10, fraction):
        plan = plan_departure_recovery(loaded_original10, 10)
        with pytest.raises(ValueError, match="fraction_for_recovery"):
            plan.serialized_seconds(100e6, fraction)

    def test_full_fraction_boundary_accepted(self, loaded_original10):
        plan = plan_departure_recovery(loaded_original10, 10)
        assert plan.serialized_seconds(100e6, 1.0) > 0
