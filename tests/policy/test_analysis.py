"""End-to-end trace analysis wrapper."""

import numpy as np
import pytest

from repro.policy.analysis import analyze_trace, config_for_trace
from repro.policy.resizer import PolicyConfig
from repro.workloads.trace import LoadTrace


@pytest.fixture
def trace():
    rng = np.random.default_rng(5)
    load = 50e6 + 100e6 * rng.random(600)
    load[200:300] = 5e6  # a deep valley
    return LoadTrace(load, dt=60.0, name="synthetic")


@pytest.fixture
def config(trace):
    """Six hours of mean load: the dataset size these tests were
    written against."""
    return PolicyConfig(n_max=20,
                        dataset_bytes=trace.stats()["mean_load"] * 6 * 3600)


class TestConfigForTrace:
    def test_per_server_bw_from_p99(self, trace):
        cfg = config_for_trace(trace, n_max=20)
        p99 = float(np.percentile(trace.load, 99))
        assert cfg.per_server_bw == pytest.approx(p99 / 20)

    def test_dataset_is_working_set(self, trace):
        cfg = config_for_trace(trace, n_max=20, working_set_hours=2.0)
        assert cfg.dataset_bytes == pytest.approx(
            trace.stats()["mean_load"] * 7200.0)


class TestAnalyzeTrace:
    def test_runs_all_policies(self, trace, config):
        an = analyze_trace(trace, config)
        assert set(an.results) == {"original-ch", "primary-full",
                                   "primary-selective"}

    def test_series_aligned(self, trace, config):
        an = analyze_trace(trace, config)
        series = an.series()
        assert set(series) == {"ideal", "original-ch", "primary-full",
                               "primary-selective"}
        lengths = {len(v) for v in series.values()}
        assert lengths == {len(trace)}

    def test_relative_machine_hours_ordering(self, trace, config):
        an = analyze_trace(trace, config)
        rel = an.relative_machine_hours()
        assert rel["primary-selective"] <= rel["primary-full"] + 1e-9
        assert all(v >= 1.0 - 1e-9 for v in rel.values())

    def test_savings_vs_original(self, trace, config):
        an = analyze_trace(trace, config)
        savings = an.savings_vs_original()
        assert set(savings) == {"primary-full", "primary-selective"}
        assert savings["primary-selective"] >= savings["primary-full"] - 1e-9

    def test_explicit_config_used(self, trace):
        cfg = PolicyConfig(n_max=15, per_server_bw=20e6,
                           dataset_bytes=1e11)
        an = analyze_trace(trace, config=cfg)
        assert an.config is cfg
        assert an.ideal.max() <= 15


class TestEnergySummary:
    def test_all_policies_plus_always_on(self, trace, config):
        an = analyze_trace(trace, config)
        summary = an.energy_summary()
        assert set(summary) == {"original-ch", "primary-full",
                                "primary-selective", "always-on"}

    def test_always_on_saves_nothing(self, trace, config):
        an = analyze_trace(trace, config)
        summary = an.energy_summary()
        assert summary["always-on"]["savings_vs_always_on"] == 0.0

    def test_selective_saves_at_least_full(self, trace, config):
        an = analyze_trace(trace, config)
        s = an.energy_summary()
        assert (s["primary-selective"]["savings_vs_always_on"]
                >= s["primary-full"]["savings_vs_always_on"] - 1e-9)
        for name, row in s.items():
            assert 0.0 <= row["savings_vs_always_on"] < 1.0, name

    def test_residual_draw_reduces_savings(self, trace, config,
                                           monkeypatch):
        from repro.cluster import power
        an = analyze_trace(trace, config)
        off0 = an.energy_summary()
        monkeypatch.setattr(power, "WATTS_OFF", 20.0)
        off20 = an.energy_summary()
        assert (off20["primary-selective"]["savings_vs_always_on"]
                < off0["primary-selective"]["savings_vs_always_on"])
