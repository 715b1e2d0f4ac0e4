"""LoadTrace container: stats and windows."""

import numpy as np
import pytest

from repro.workloads.trace import LoadTrace, TraceSpec


@pytest.fixture
def trace():
    load = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 0.0])
    return LoadTrace(load, dt=60.0, write_fraction=0.4, name="t")


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LoadTrace(np.array([]), 1.0)

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            LoadTrace(np.array([-1.0]), 1.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            LoadTrace(np.array([1.0]), 0.0)

    def test_rejects_bad_write_fraction(self):
        with pytest.raises(ValueError):
            LoadTrace(np.array([1.0]), 1.0, write_fraction=2.0)


class TestStats:
    def test_duration_and_total(self, trace):
        assert trace.duration == 360.0
        assert trace.total_bytes == pytest.approx(150.0 * 60.0)

    def test_stats_bundle(self, trace):
        st = trace.stats()
        assert st["peak_load"] == 50.0
        assert st["mean_load"] == pytest.approx(25.0)
        assert st["burstiness"] == pytest.approx(2.0)

    def test_write_load(self, trace):
        assert trace.write_load[0] == pytest.approx(4.0)

    def test_resizing_frequency(self, trace):
        # ideal at bw=10: [1,2,3,4,5,0] -> diffs [1,1,1,1,5] mean 1.8
        assert trace.resizing_frequency(10.0) == pytest.approx(1.8)


class TestTransforms:
    def test_window(self, trace):
        w = trace.window(60.0, 120.0)
        assert len(w) == 2
        assert list(w.load) == [20.0, 30.0]

    def test_window_out_of_range(self, trace):
        with pytest.raises(ValueError):
            trace.window(0.0, 10_000.0)

    def test_scaled_to_total(self, trace):
        scaled = trace.scaled_to_total(1e6)
        assert scaled.total_bytes == pytest.approx(1e6)


class TestTraceSpec:
    def test_derived_fields(self):
        spec = TraceSpec("x", 100, 86400.0 * 2, 2 * 86400 * 100)
        assert spec.length_days == pytest.approx(2.0)
        assert spec.mean_load == pytest.approx(100.0)
