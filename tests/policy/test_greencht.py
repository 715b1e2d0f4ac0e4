"""The GreenCHT tiered baseline policy."""

import numpy as np
import pytest

from repro.policy import resizer
from repro.policy.resizer import (
    GreenCHTPolicy,
    PolicyConfig,
    simulate_policy,
)
from repro.workloads.trace import LoadTrace


@pytest.fixture
def config():
    return PolicyConfig(n_max=20, per_server_bw=10e6,
                        dataset_bytes=100e9)


def make_trace(pattern, write_fraction=0.5):
    return LoadTrace(np.array(pattern, dtype=float), 60.0,
                     write_fraction)


class TestTiers:
    def test_boundaries_start_at_primary_tier(self, config):
        g = GreenCHTPolicy(config)
        assert g.boundaries[0] == config.p
        assert g.boundaries[-1] == config.n_max

    def test_boundaries_ascending_unique(self, config, monkeypatch):
        monkeypatch.setattr(resizer, "NUM_TIERS", 5)
        g = GreenCHTPolicy(config)
        assert g.boundaries == sorted(set(g.boundaries))

    def test_quantise_rounds_up(self, config):
        g = GreenCHTPolicy(config)
        for k in range(1, config.n_max + 1):
            q = g._quantise(k)
            assert q >= k or q == g.boundaries[-1]
            assert q in g.boundaries


class TestSimulation:
    def test_active_counts_only_on_boundaries(self, config):
        g = GreenCHTPolicy(config)
        trace = make_trace([150e6] * 20 + [10e6] * 40 + [150e6] * 20)
        res = g.simulate(trace)
        assert set(np.unique(res.servers)) <= set(g.boundaries)

    def test_dispatch_by_name(self, config):
        trace = make_trace([50e6] * 50)
        res = simulate_policy("greencht", trace, config)
        assert res.name == "greencht"

    def test_granularity_costs_machine_hours(self, config):
        """The §VI argument: tier-wise resizing wastes machine hours
        relative to per-server elastic resizing."""
        trace = make_trace([150e6] * 20 + [10e6] * 60 + [150e6] * 20)
        tiered = simulate_policy("greencht", trace, config)
        fine = simulate_policy("primary-selective", trace, config)
        assert (tiered.relative_machine_hours
                >= fine.relative_machine_hours)

    def test_never_below_ideal(self, config):
        trace = make_trace([150e6] * 20 + [10e6] * 40)
        res = simulate_policy("greencht", trace, config)
        assert res.relative_machine_hours >= 1.0 - 1e-9
