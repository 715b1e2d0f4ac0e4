"""The power model: machine hours to energy."""

import pytest

from repro.cluster import power
from repro.cluster.power import PowerModel


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
