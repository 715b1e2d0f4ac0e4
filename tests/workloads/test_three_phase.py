"""The §V-A 3-phase workload definition."""

import pytest

from repro.workloads.three_phase import (
    GB,
    MB,
    PHASE_NAMES,
    Phase,
    three_phase_workload,
)


class TestPaperParameters:
    def test_three_phases(self):
        phases = three_phase_workload()
        assert [p.name for p in phases] == ["phase1", "phase2", "phase3"]
        assert tuple(p.name for p in phases) == PHASE_NAMES

    def test_phase1_is_14gb_pure_write(self):
        p1 = three_phase_workload()[0]
        assert p1.total_bytes == pytest.approx(14 * GB)
        assert p1.write_ratio == 1.0
        assert p1.rate_cap is None

    def test_phase2_bytes_and_rate(self):
        """4.2 GB read + 8.4 GB written at 20 MB/s."""
        p2 = three_phase_workload()[1]
        assert p2.total_bytes == pytest.approx(12.6 * GB)
        assert p2.write_bytes == pytest.approx(8.4 * GB)
        assert p2.read_bytes == pytest.approx(4.2 * GB)
        assert p2.rate_cap == 20 * MB
        assert p2.min_duration() == pytest.approx(630.0)

    def test_phase3_write_ratio_20pct(self):
        p3 = three_phase_workload()[2]
        assert p3.total_bytes == pytest.approx(14 * GB)
        assert p3.write_ratio == pytest.approx(0.2)

    def test_scale(self):
        phases = three_phase_workload(scale=0.1)
        assert phases[0].total_bytes == pytest.approx(1.4 * GB)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            three_phase_workload(scale=0)


class TestPhaseValidation:
    def test_rejects_zero_bytes(self):
        with pytest.raises(ValueError):
            Phase("p", total_bytes=0, write_ratio=0.5)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            Phase("p", total_bytes=1, write_ratio=1.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Phase("p", total_bytes=1, write_ratio=0.5, rate_cap=0)

    def test_uncapped_duration_is_none(self):
        assert Phase("p", 100, 1.0).min_duration() is None
