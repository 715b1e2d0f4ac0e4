"""Retry policy: backoff shape, deterministic jitter, quarantine
threshold.

The schedule is a set of module constants; a test that needs another
shape patches them."""

import pytest

import repro.faults.retry as retry
from repro.faults.retry import RetryPolicy


@pytest.fixture
def schedule(monkeypatch):
    """``schedule(BASE_DELAY=..., FACTOR=..., ...)`` patches the
    backoff constants for one test."""
    def patch(**values):
        for name, value in values.items():
            monkeypatch.setattr(retry, name, value)
    return patch


class TestBackoff:
    def test_exponential_then_capped(self, schedule):
        schedule(BASE_DELAY=1.0, FACTOR=2.0, MAX_DELAY=5.0, JITTER=0.0)
        p = RetryPolicy()
        assert [p.delay(a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_attempt_is_one_based(self):
        p = RetryPolicy()
        with pytest.raises(ValueError):
            p.delay(0)

    def test_jitter_shaves_at_most_the_fraction(self, schedule):
        schedule(BASE_DELAY=2.0, FACTOR=1.0, MAX_DELAY=2.0)
        p = RetryPolicy(seed=1)
        for attempt in range(1, 8):
            d = p.delay(attempt, key="x")
            assert 2.0 * 0.75 <= d <= 2.0

    def test_jitter_deterministic_per_key_and_attempt(self, schedule):
        schedule(JITTER=0.5)
        p = RetryPolicy(seed=3)
        assert p.delay(2, "a") == p.delay(2, "a")
        assert p.delay(2, "a") != p.delay(3, "a")
        assert p.delay(2, "a") != p.delay(2, "b")

    def test_seed_namespaces_jitter(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=2)
        assert a.delay(1, "k") != b.delay(1, "k")


class TestExhaustion:
    def test_threshold(self, schedule):
        schedule(MAX_ATTEMPTS=3)
        p = RetryPolicy()
        assert not p.exhausted(2)
        assert p.exhausted(3)
        assert p.exhausted(4)


class TestBoundaries:
    def test_jitter_zero_is_exact(self, schedule):
        # At jitter=0 the interval [(1-jitter)*d, d] collapses to a
        # point: every delay is exactly the capped exponential.
        schedule(BASE_DELAY=0.25, FACTOR=3.0, MAX_DELAY=2.0, JITTER=0.0)
        p = RetryPolicy()
        assert [p.delay(a, "k") for a in (1, 2, 3, 4)] == \
            [0.25, 0.75, 2.0, 2.0]

    def test_factor_one_is_constant(self, schedule):
        # factor=1 degenerates to fixed-delay retry; jitter still
        # shaves off at most its fraction.
        schedule(BASE_DELAY=1.5, FACTOR=1.0, MAX_DELAY=1.5, JITTER=0.0)
        p = RetryPolicy()
        assert [p.delay(a) for a in range(1, 6)] == [1.5] * 5
        schedule(JITTER=0.5)
        j = RetryPolicy(seed=9)
        for a in range(1, 6):
            assert 0.75 <= j.delay(a, "k") <= 1.5

    @pytest.mark.parametrize("jitter", [0.0, 0.25, 0.999])
    @pytest.mark.parametrize("factor", [1.0, 2.0, 10.0])
    def test_delay_always_in_documented_interval(self, schedule, jitter,
                                                 factor):
        # The delay() contract: for every attempt the result lands in
        # [(1-jitter)*d, d] and in (0, max_delay].
        schedule(BASE_DELAY=0.5, FACTOR=factor, MAX_DELAY=6.0,
                 JITTER=jitter)
        p = RetryPolicy(seed=4)
        for attempt in range(1, 12):
            d = min(0.5 * factor ** (attempt - 1), 6.0)
            got = p.delay(attempt, key=f"t{attempt}")
            assert (1.0 - jitter) * d <= got <= d
            assert 0.0 < got <= 6.0


class TestValidation:
    def test_max_delay_equal_to_base_is_allowed(self, schedule):
        schedule(BASE_DELAY=2.0, FACTOR=2.0, MAX_DELAY=2.0, JITTER=0.0)
        assert RetryPolicy().delay(5) == 2.0
