"""Knobs of the resize-agility driver (small configurations)."""

import pytest

from repro.experiments import run_resize_agility


class TestKnobs:
    def test_custom_batch_and_interval(self):
        res = run_resize_agility(objects=200, batch=3,
                                 step_interval=20.0, duration=200.0)
        vals = [v for _, v in res.ideal.points()]
        # 10 -> 7 -> 4 -> 2 (floored at replicas).
        assert vals[:4] == [10, 7, 4, 2]

    def test_faster_disks_shrink_lag(self):
        slow = run_resize_agility(objects=600, disk_bw=32e6)
        fast = run_resize_agility(objects=600, disk_bw=256e6)
        assert fast.lag_seconds() < slow.lag_seconds()

    def test_recovery_fraction_scales_lag(self):
        stingy = run_resize_agility(objects=600, recovery_fraction=0.25)
        generous = run_resize_agility(objects=600, recovery_fraction=1.0)
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
