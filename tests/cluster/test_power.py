"""Machine-hour metering and the power model."""

import pytest

from repro.cluster import power
from repro.cluster.power import (
    MachineHourMeter,
    PowerModel,
    machine_hours_of_series,
)


class TestMachineHourMeter:
    def test_constant_count(self):
        m = MachineHourMeter(0.0, 10)
        assert m.finish(3600.0) == pytest.approx(10.0)

    def test_step_change(self):
        m = MachineHourMeter(0.0, 10)
        m.record(1800.0, 4)
        assert m.finish(3600.0) == pytest.approx(5.0 + 2.0)

    def test_time_regression_rejected(self):
        m = MachineHourMeter(0.0, 1)
        m.record(10.0, 2)
        with pytest.raises(ValueError):
            m.record(5.0, 3)

    def test_samples_recorded(self):
        m = MachineHourMeter(0.0, 1)
        m.record(5.0, 2)
        assert m.samples[0] == (0.0, 1)
        assert m.samples[1] == (5.0, 2)

    def test_machine_seconds(self):
        m = MachineHourMeter(0.0, 2)
        m.finish(10.0)
        assert m.machine_seconds == pytest.approx(20.0)


class TestSeriesHelper:
    def test_matches_meter(self):
        mh = machine_hours_of_series([0.0, 1800.0], [10, 4],
                                     end_time=3600.0)
        assert mh == pytest.approx(7.0)

    def test_empty_series(self):
        assert machine_hours_of_series([], []) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            machine_hours_of_series([0.0], [1, 2])


class TestPowerModel:
    def test_energy(self, monkeypatch):
        monkeypatch.setattr(power, "WATTS_OFF", 10.0)
        pm = PowerModel(watts_active=200.0)
        assert pm.energy_kwh(10.0, 5.0) == pytest.approx(2.05)

    def test_savings_fraction(self):
        pm = PowerModel(watts_active=200.0)
        # Half the machine hours of always-on -> 50% saved.
        assert pm.savings_vs_always_on(
            active_machine_hours=50.0, n_servers=10,
            duration_hours=10.0) == pytest.approx(0.5)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            PowerModel().savings_vs_always_on(1.0, 10, 0.0)
