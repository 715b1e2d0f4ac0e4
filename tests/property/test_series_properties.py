"""Property tests for StepSeries, the machine-hour integral of step
changes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.timeline import StepSeries


@st.composite
def step_series(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    deltas = draw(st.lists(st.floats(min_value=0.1, max_value=100.0),
                           min_size=n, max_size=n))
    values = draw(st.lists(st.integers(min_value=0, max_value=50),
                           min_size=n, max_size=n))
    times = []
    t = 0.0
    for d in deltas:
        times.append(t)
        t += d
    return times, [float(v) for v in values], t


def build(times, values):
    s = StepSeries()
    for t, v in zip(times, values):
        s.append(t, v)
    return s


class TestStepSeriesProperties:
    @given(data=step_series())
    @settings(max_examples=200, deadline=None)
    def test_integral_additivity(self, data):
        times, values, end = data
        s = build(times, values)
        mid = (times[0] + end) / 2.0
        whole = s.integral(times[0], end)
        split = s.integral(times[0], mid) + s.integral(mid, end)
        assert abs(whole - split) < 1e-6 * max(1.0, abs(whole))

    @given(data=step_series())
    @settings(max_examples=200, deadline=None)
    def test_integral_bounded_by_extremes(self, data):
        times, values, end = data
        s = build(times, values)
        span = end - times[0]
        if span <= 0:
            return
        integral = s.integral(times[0], end)
        assert min(values) * span - 1e-6 <= integral
        assert integral <= max(values) * span + 1e-6

    @given(data=step_series(),
           probe=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=200, deadline=None)
    def test_value_at_returns_a_step_value(self, data, probe):
        times, values, _end = data
        s = build(times, values)
        assert s.value_at(probe) in values
