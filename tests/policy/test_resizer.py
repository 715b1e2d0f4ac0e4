"""Policy state machines: the §V-B model's qualitative behaviour."""

import numpy as np
import pytest

from repro.policy.resizer import (
    REPLICAS,
    OriginalCHPolicy,
    PolicyConfig,
    PrimaryFullPolicy,
    PrimarySelectivePolicy,
    _equal_work_shares,
    simulate_policy,
)
from repro.workloads.trace import LoadTrace


def make_trace(pattern, dt=60.0, write_fraction=0.5):
    return LoadTrace(np.array(pattern, dtype=float), dt,
                     write_fraction)


@pytest.fixture
def config():
    return PolicyConfig(n_max=20, per_server_bw=10e6,
                        dataset_bytes=200e9)


# A square-wave trace: high load, deep valley, high load again.
HIGH = 150e6
LOW = 10e6


def square_trace(minutes_high=30, minutes_low=60):
    return make_trace([HIGH] * minutes_high + [LOW] * minutes_low
                      + [HIGH] * minutes_high)


class TestConfig:
    def test_primary_count(self, config):
        assert config.p == 3  # ceil(20 / e^2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(n_max=1, dataset_bytes=1e12)
        with pytest.raises(ValueError):
            PolicyConfig(n_max=10, per_server_bw=0, dataset_bytes=1e12)
        with pytest.raises(ValueError):
            PolicyConfig(n_max=10, dataset_bytes=0)


class TestEqualWorkShares:
    def test_sum_to_one(self):
        shares = _equal_work_shares(10, 2, 2)
        assert shares.sum() == pytest.approx(1.0)

    def test_primaries_hold_one_over_r(self):
        shares = _equal_work_shares(10, 2, 2)
        assert shares[:2].sum() == pytest.approx(0.5)

    def test_no_secondaries_case(self):
        shares = _equal_work_shares(2, 2, 2)
        assert shares.sum() == pytest.approx(0.5)


class TestFloors:
    def test_original_floor_is_replicas(self, config):
        res = simulate_policy("original-ch",
                              make_trace([0.0] * 200), config)
        assert res.servers.min() == REPLICAS

    def test_elastic_floor_is_primaries(self, config):
        for name in ("primary-full", "primary-selective"):
            res = simulate_policy(name, make_trace([0.0] * 200), config)
            assert res.servers.min() == config.p


class TestShrinkBehaviour:
    def test_elastic_shrinks_instantly(self, config):
        trace = square_trace()
        res = simulate_policy("primary-selective", trace, config)
        # One sample after the valley starts, the count is already at
        # the valley level (or the primary floor, whichever is higher).
        valley_start = 30
        floor = max(int(res.ideal[valley_start]), config.p)
        assert res.servers[valley_start + 1] <= floor + 1

    def test_original_lags_on_shrink(self, config):
        trace = square_trace()
        orig = simulate_policy("original-ch", trace, config)
        sel = simulate_policy("primary-selective", trace, config)
        valley = slice(31, 60)
        assert orig.servers[valley].mean() > sel.servers[valley].mean()

    def test_original_rereplicates_on_shrink(self, config):
        res = simulate_policy("original-ch", square_trace(), config)
        assert res.rereplicated_bytes > 0

    def test_elastic_never_rereplicates(self, config):
        for name in ("primary-full", "primary-selective"):
            res = simulate_policy(name, square_trace(), config)
            assert res.rereplicated_bytes == 0


class TestGrowthDebt:
    def test_growth_triggers_migration(self, config):
        for name in ("original-ch", "primary-full", "primary-selective"):
            res = simulate_policy(name, square_trace(), config)
            assert res.migrated_bytes > 0, name

    def test_selective_migrates_least(self, config):
        trace = square_trace()
        sel = simulate_policy("primary-selective", trace, config)
        full = simulate_policy("primary-full", trace, config)
        orig = simulate_policy("original-ch", trace, config)
        assert sel.migrated_bytes < full.migrated_bytes
        assert sel.migrated_bytes < orig.migrated_bytes

    def test_no_writes_no_selective_debt(self, config):
        trace = make_trace([HIGH] * 20 + [LOW] * 30 + [HIGH] * 20,
                           write_fraction=0.0)
        res = simulate_policy("primary-selective", trace, config)
        assert res.migrated_bytes == 0


class TestMachineHours:
    def test_all_policies_at_least_ideal(self, config):
        trace = square_trace()
        for name in ("original-ch", "primary-full", "primary-selective"):
            res = simulate_policy(name, trace, config)
            assert res.relative_machine_hours >= 1.0 - 1e-9

    def test_paper_ordering(self, config):
        """Table II's ordering: selective <= full <= original."""
        trace = square_trace()
        ratios = {name: simulate_policy(name, trace, config)
                  .relative_machine_hours
                  for name in ("original-ch", "primary-full",
                               "primary-selective")}
        assert ratios["primary-selective"] <= ratios["primary-full"]
        assert ratios["primary-full"] <= ratios["original-ch"]

    def test_flat_trace_costs_nothing_extra(self, config):
        trace = make_trace([HIGH] * 100)
        for name in ("primary-full", "primary-selective"):
            res = simulate_policy(name, trace, config)
            assert res.relative_machine_hours == pytest.approx(1.0)


class TestDispatch:
    def test_unknown_policy_rejected(self, config):
        with pytest.raises(ValueError):
            simulate_policy("bogus", square_trace(), config)

    def test_result_metadata(self, config):
        res = simulate_policy("primary-full", square_trace(), config)
        assert res.name == "primary-full"
        assert res.dt == 60.0
        assert len(res.servers) == len(res.ideal)
