"""Weight helpers and fairness diagnostics."""

import pytest

from repro.hashring.ring import HashRing
from repro.hashring.weights import (
    expected_shares,
    share_error,
    uniform_weights,
    validate_weights,
)


class TestUniformWeights:
    def test_all_equal(self):
        w = uniform_weights(["a", "b", "c"], 10)
        assert set(w.values()) == {10}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            uniform_weights(["a"], 0)


class TestValidateWeights:
    def test_accepts_positive_ints(self):
        validate_weights({"a": 1, "b": 500})

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            validate_weights({"a": 0})

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            validate_weights({"a": 1.5})


class TestExpectedShares:
    def test_shares_sum_to_one(self):
        shares = expected_shares({"a": 1, "b": 3})
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["b"] == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expected_shares({})


class TestShareError:
    def test_zero_for_exact_match(self):
        exp = {"a": 0.5, "b": 0.5}
        assert share_error(exp, exp) == 0.0

    def test_measures_worst_relative_deviation(self):
        err = share_error({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5})
        assert err == pytest.approx(0.2)

    def test_fairness_improves_with_vnode_budget(self):
        """More vnodes per server → arc shares converge to weights —
        the §III-C requirement that B be 'large enough'."""
        errors = []
        for vnodes in (8, 64, 512):
            ring = HashRing(dict.fromkeys(range(1, 11), vnodes))
            exp = expected_shares({r: vnodes for r in range(1, 11)})
            errors.append(share_error(ring.arc_share(), exp))
        assert errors[2] < errors[0]
