"""The resize-agility driver's fixed values, varied by patching its
module constants (small configurations)."""

from repro.experiments import resize_agility
from repro.experiments import run_resize_agility


class TestKnobs:
    def test_custom_batch_and_interval(self, monkeypatch):
        monkeypatch.setattr(resize_agility, "BATCH", 3)
        monkeypatch.setattr(resize_agility, "STEP_INTERVAL", 20.0)
        monkeypatch.setattr(resize_agility, "DURATION", 200.0)
        res = run_resize_agility(objects=200)
        vals = [v for _, v in res.ideal.points()]
        # 10 -> 7 -> 4 -> 2 (floored at replicas).
        assert vals[:4] == [10, 7, 4, 2]

    def test_faster_disks_shrink_lag(self, monkeypatch):
        monkeypatch.setattr(resize_agility, "DISK_BW", 32e6)
        slow = run_resize_agility(objects=600)
        monkeypatch.setattr(resize_agility, "DISK_BW", 256e6)
        fast = run_resize_agility(objects=600)
        assert fast.lag_seconds() < slow.lag_seconds()

    def test_recovery_fraction_scales_lag(self, monkeypatch):
        monkeypatch.setattr(resize_agility, "RECOVERY_FRACTION", 0.25)
        stingy = run_resize_agility(objects=600)
        monkeypatch.setattr(resize_agility, "RECOVERY_FRACTION", 1.0)
        generous = run_resize_agility(objects=600)
        assert generous.lag_seconds() < stingy.lag_seconds()

    def test_elastic_always_exact(self):
        for objects in (100, 800):
            res = run_resize_agility(objects=objects)
            assert res.elastic_lag_seconds() == 0.0

    def test_ideal_series_bounds(self):
        res = run_resize_agility(objects=100)
        values = [v for _, v in res.ideal.points()]
        assert max(values) == 10
        assert min(values) == 2
