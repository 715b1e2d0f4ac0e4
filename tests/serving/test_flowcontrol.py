"""Flow-control policies: admission and backpressure shape.

The policies' values are module constants; a test that needs another
shape patches them."""

import pytest

import repro.serving.flowcontrol as flowcontrol
from repro.serving.flowcontrol import (
    AdaptiveQueueController,
    FixedConcurrencyController,
    FlowController,
    UnthrottledController,
    make_controller,
)


@pytest.fixture
def shape(monkeypatch):
    """``shape(QUEUE_BOUND=..., TARGET=..., ...)`` patches the policy
    constants for one test."""
    def patch(**values):
        for name, value in values.items():
            monkeypatch.setattr(flowcontrol, name, value)
    return patch


class TestUnthrottled:
    def test_admits_at_any_depth(self, shape):
        shape(QUEUE_BOUND=4)
        c = UnthrottledController()
        assert c.admit(1, 0) and c.admit(1, 4) and c.admit(1, 10_000)

    def test_never_delays(self):
        c = UnthrottledController()
        assert c.completion_delay(1, 500, True) == 0.0

    def test_declares_a_bound_it_does_not_enforce(self, shape):
        # The asymmetry the serve-queue-bounded checker exploits.
        shape(QUEUE_BOUND=8)
        c = UnthrottledController()
        assert c.queue_bound() == 8
        assert c.admit(1, 9)


class TestFixedConcurrency:
    def test_admits_strictly_below_limit(self, shape):
        shape(QUEUE_BOUND=3)
        c = FixedConcurrencyController()
        assert c.admit(1, 2)
        assert not c.admit(1, 3)
        assert not c.admit(1, 4)

    def test_bound_equals_limit(self, shape):
        shape(QUEUE_BOUND=7)
        assert FixedConcurrencyController().queue_bound() == 7

    def test_never_delays(self):
        c = FixedConcurrencyController()
        assert c.completion_delay(1, 2, True) == 0.0


class TestAdaptive:
    def test_invisible_at_or_below_target(self):
        c = AdaptiveQueueController()
        assert flowcontrol.TARGET == 8
        assert c.completion_delay(1, 8, False) == 0.0
        assert c.completion_delay(1, 0, True) == 0.0

    def test_delay_grows_with_depth(self, shape):
        shape(MAX_DELAY=10.0)
        c = AdaptiveQueueController()
        d16 = c.completion_delay(1, 16, False)
        d32 = c.completion_delay(1, 32, False)
        assert 0.0 < d16 < d32
        assert d16 == pytest.approx(0.1 * (16 - 8) / 8)

    def test_background_scales_the_delay(self, shape):
        shape(MAX_DELAY=10.0)
        c = AdaptiveQueueController()
        quiet = c.completion_delay(1, 24, False)
        busy = c.completion_delay(1, 24, True)
        assert busy == pytest.approx(2.0 * quiet)

    def test_delay_capped(self, shape):
        shape(TARGET=1, GAIN=5.0, MAX_DELAY=1.5)
        c = AdaptiveQueueController()
        assert c.completion_delay(1, 64, True) == 1.5

    def test_admission_backstop_at_bound(self, shape):
        shape(QUEUE_BOUND=16, TARGET=4)
        c = AdaptiveQueueController()
        assert c.admit(1, 15)
        assert not c.admit(1, 16)


class TestFactory:
    @pytest.mark.parametrize("kind, cls", [
        ("unthrottled", UnthrottledController),
        ("fixed", FixedConcurrencyController),
        ("adaptive", AdaptiveQueueController),
    ])
    def test_builds_each_policy(self, kind, cls):
        c = make_controller(kind)
        assert isinstance(c, cls)
        assert isinstance(c, FlowController)
        assert c.name == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown flow controller"):
            make_controller("bogus")
