"""StepSeries: integrals and sampling."""

import pytest

from repro.metrics.timeline import StepSeries


@pytest.fixture
def series():
    s = StepSeries()
    s.append(0.0, 10.0)
    s.append(5.0, 4.0)
    s.append(8.0, 7.0)
    return s


class TestBuild:
    def test_time_must_increase(self, series):
        with pytest.raises(ValueError):
            series.append(8.0, 1.0)
        with pytest.raises(ValueError):
            series.append(3.0, 1.0)

    def test_coalesces_repeated_values(self):
        s = StepSeries()
        s.append(0.0, 5.0)
        s.append(1.0, 5.0)
        s.append(2.0, 6.0)
        assert s.points() == [(0.0, 5.0), (2.0, 6.0)]


class TestValueAt:
    def test_steps_hold_value(self, series):
        assert series.value_at(0.0) == 10.0
        assert series.value_at(4.999) == 10.0
        assert series.value_at(5.0) == 4.0
        assert series.value_at(100.0) == 7.0

    def test_before_first_breakpoint(self, series):
        assert series.value_at(-10.0) == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StepSeries().value_at(0.0)


class TestIntegral:
    def test_basic(self, series):
        # 10*5 + 4*3 + 7*2 over [0, 10]
        assert series.integral(0.0, 10.0) == pytest.approx(76.0)

    def test_partial_segment(self, series):
        assert series.integral(2.0, 6.0) == pytest.approx(10 * 3 + 4 * 1)

    def test_extends_first_value_backwards(self, series):
        assert series.integral(-2.0, 0.0) == pytest.approx(20.0)

    def test_zero_width(self, series):
        assert series.integral(3.0, 3.0) == 0.0

    def test_backwards_rejected(self, series):
        with pytest.raises(ValueError):
            series.integral(5.0, 1.0)


class TestSample:
    def test_grid_sampling(self, series):
        grid = [0.0, 5.0, 9.0]
        assert list(series.sample(grid)) == [10.0, 4.0, 7.0]

    def test_points_roundtrip(self, series):
        pts = series.points()
        rebuilt = StepSeries()
        for t, v in pts:
            rebuilt.append(t, v)
        assert rebuilt.points() == pts
