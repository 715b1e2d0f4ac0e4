"""Weight helpers and fairness diagnostics."""

import pytest

from repro.hashring.ring import HashRing
from repro.hashring.weights import (
    expected_shares,
    share_error,
)


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
