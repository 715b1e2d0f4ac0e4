"""Resizing controllers (the paper's future-work direction)."""

import numpy as np
import pytest

from repro.policy.controller import (
    OracleController,
    PredictiveController,
    ReactiveController,
    evaluate_provisioning,
)
from repro.policy.resizer import PolicyConfig, simulate_policy
from repro.workloads.trace import LoadTrace


@pytest.fixture
def config():
    return PolicyConfig(n_max=20, per_server_bw=10e6,
                        dataset_bytes=100e9)


def make_trace(pattern):
    return LoadTrace(np.array(pattern, dtype=float), 60.0)


STEP = [20e6] * 30 + [150e6] * 30 + [20e6] * 30
RAMP = list(np.linspace(10e6, 180e6, 60)) + [180e6] * 20


class TestOracle:
    def test_matches_ideal(self, config):
        trace = make_trace(STEP)
        req = OracleController().requested(trace, config)
        assert req[0] == 2 and req[35] == 15

    def test_zero_violations(self, config):
        trace = make_trace(STEP)
        req = OracleController().requested(trace, config)
        q = evaluate_provisioning(trace, req, config.per_server_bw)
        assert q["violation_fraction"] == 0.0


class TestReactive:
    def test_grows_immediately_after_observation(self, config):
        trace = make_trace(STEP)
        req = ReactiveController(headroom=1.0).requested(trace, config)
        # Load steps up at t=30; the controller sees it at t=31.
        assert req[30] < 10
        assert req[31] >= 15

    def test_shrinks_only_after_hold_down(self, config):
        trace = make_trace(STEP)
        ctrl = ReactiveController(headroom=1.0, hold_samples=5)
        req = ctrl.requested(trace, config)
        # Load drops at t=60; the shrink happens hold_samples later.
        assert req[62] >= 15
        assert req[60 + 6] < 15

    def test_headroom_overprovisions(self, config):
        trace = make_trace(STEP)
        lo = ReactiveController(headroom=1.0).requested(trace, config)
        hi = ReactiveController(headroom=1.5).requested(trace, config)
        assert hi.sum() > lo.sum()

    def test_one_sample_lag_causes_violation_on_step(self, config):
        trace = make_trace(STEP)
        req = ReactiveController(headroom=1.0).requested(trace, config)
        q = evaluate_provisioning(trace, req, config.per_server_bw)
        assert q["violation_fraction"] > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactiveController(headroom=0.5)
        with pytest.raises(ValueError):
            ReactiveController(hold_samples=0)


class TestPredictive:
    def test_anticipates_a_ramp(self, config):
        trace = make_trace(RAMP)
        reactive = ReactiveController(headroom=1.0).requested(trace, config)
        predictive = PredictiveController(
            headroom=1.0, horizon_samples=5).requested(trace, config)
        # Mid-ramp, the forecaster runs ahead of the follower.
        mid = slice(15, 55)
        assert predictive[mid].mean() > reactive[mid].mean()

    def test_fewer_violations_than_reactive_on_ramp(self, config):
        trace = make_trace(RAMP)
        r = ReactiveController(headroom=1.0).requested(trace, config)
        p = PredictiveController(headroom=1.0,
                                 horizon_samples=5).requested(trace, config)
        qr = evaluate_provisioning(trace, r, config.per_server_bw)
        qp = evaluate_provisioning(trace, p, config.per_server_bw)
        assert (qp["violation_fraction"] <= qr["violation_fraction"])

    def test_forecast_never_undercuts_observed(self, config):
        trace = make_trace(STEP)
        req = PredictiveController(headroom=1.0).requested(trace, config)
        # One sample after observation, capacity covers the previous
        # load at minimum.
        for t in range(1, len(trace)):
            assert (req[t] * config.per_server_bw
                    >= trace.load[t - 1] - 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictiveController(horizon_samples=-1)
        with pytest.raises(ValueError):
            PredictiveController(headroom=0.9)


class TestIntegrationWithPolicies:
    def test_requested_series_drives_policy(self, config):
        trace = make_trace(STEP)
        req = ReactiveController().requested(trace, config)
        res = simulate_policy("primary-selective", trace, config,
                              requested=req)
        # The policy's servers track the controller's requests (floored
        # at p, plus migration overheads).
        assert res.servers.max() >= req.max()
        assert res.servers.min() >= config.p

    def test_length_mismatch_rejected(self, config):
        trace = make_trace(STEP)
        with pytest.raises(ValueError):
            simulate_policy("primary-selective", trace, config,
                            requested=np.array([1, 2, 3]))


class TestEvaluateProvisioning:
    def test_perfect_provisioning(self, config):
        trace = make_trace([50e6] * 10)
        servers = np.full(10, 5)
        q = evaluate_provisioning(trace, servers, 10e6)
        assert q["violation_fraction"] == 0.0
        assert q["mean_extra_servers"] == 0.0

    def test_shortfall_measured(self):
        trace = make_trace([100e6] * 10)
        servers = np.full(10, 5)  # capacity 50e6 -> 50% short
        q = evaluate_provisioning(trace, servers, 10e6)
        assert q["violation_fraction"] == 1.0
        assert q["mean_shortfall_fraction"] == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        trace = make_trace([1.0] * 5)
        with pytest.raises(ValueError):
            evaluate_provisioning(trace, np.array([1]), 1.0)
