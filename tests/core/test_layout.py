"""Equal-work layout (§III-C) and capacity planning (§III-D)."""

import math

import pytest

from repro.core.layout import (
    CapacityPlan,
    EqualWorkLayout,
    equal_work_weights,
    primary_count,
)
from repro.hashring.weights import expected_shares


class TestPrimaryCount:
    def test_paper_example_10_servers(self):
        """§III-C: for n=10, p = ceil(10/e^2) = 2."""
        assert primary_count(10) == 2

    def test_formula(self):
        for n in (1, 5, 20, 50, 100, 500):
            assert primary_count(n) == max(1, math.ceil(n / math.e ** 2))

    def test_at_least_one(self):
        assert primary_count(1) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            primary_count(0)
        with pytest.raises(ValueError):
            primary_count(10, replicas=0)


class TestEqualWorkWeights:
    def test_paper_example_B1000(self):
        """§III-C's worked example: B=1000, p=2 → primaries get 500,
        server 6 gets 1000/6 = 166 (integer division)."""
        w = equal_work_weights(10, B=1000, p=2)
        assert w[1] == 500 and w[2] == 500
        assert w[6] == 1000 // 6

    def test_secondary_weights_decay_as_one_over_rank(self):
        w = equal_work_weights(20, B=100_000)
        p = primary_count(20)
        for i in range(p + 1, 21):
            assert w[i] == 100_000 // i

    def test_weights_never_zero(self):
        w = equal_work_weights(50, B=50)
        assert all(v >= 1 for v in w.values())

    def test_B_too_small_rejected(self):
        with pytest.raises(ValueError):
            equal_work_weights(100, B=50)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            equal_work_weights(10, B=1000, p=0)
        with pytest.raises(ValueError):
            equal_work_weights(10, B=1000, p=11)

    def test_fractions_sum_to_one(self):
        fracs = expected_shares(equal_work_weights(10, B=10_000))
        assert sum(fracs.values()) == pytest.approx(1.0)


class TestEqualWorkLayout:
    def test_create_defaults(self):
        lay = EqualWorkLayout.create(10)
        assert lay.p == 2
        assert lay.min_active == 2
        assert list(lay.primary_ranks) == [1, 2]

    def test_roles(self):
        lay = EqualWorkLayout.create(10)
        assert lay.is_primary(1) and lay.is_primary(2)
        assert not lay.is_primary(3)

    def test_weight_of(self):
        lay = EqualWorkLayout.create(10, B=1000)
        assert lay.weight_of(1) == 500
        assert lay.weight_of(10) == 100

    def test_weights_non_increasing_beyond_primaries(self):
        lay = EqualWorkLayout.create(30, B=100_000)
        ws = [lay.weight_of(r) for r in range(lay.p + 1, lay.n + 1)]
        assert ws == sorted(ws, reverse=True)

    def test_uniform_variant(self):
        lay = EqualWorkLayout.uniform(10, B=10_000)
        assert len(set(lay.weights)) == 1
        assert lay.p == 2  # roles still defined

    def test_uniform_rejects_small_B(self):
        with pytest.raises(ValueError):
            EqualWorkLayout.uniform(100, B=10)


class TestCapacityPlan:
    def test_uses_paper_tiers_by_default(self):
        lay = EqualWorkLayout.create(10)
        plan = CapacityPlan.for_layout(lay)
        assert set(plan.capacities) <= set(CapacityPlan.DEFAULT_TIERS)

    def test_capacity_non_increasing_with_rank(self):
        lay = EqualWorkLayout.create(20)
        plan = CapacityPlan.for_layout(lay)
        caps = list(plan.capacities)
        assert caps == sorted(caps, reverse=True)

    def test_few_distinct_tiers(self):
        """§III-D: 'we use only a few different capacity
        configurations'."""
        lay = EqualWorkLayout.create(100)
        plan = CapacityPlan.for_layout(lay)
        assert len(set(plan.capacities)) <= len(CapacityPlan.DEFAULT_TIERS)

    def test_neighbouring_ranks_share_tiers(self):
        lay = EqualWorkLayout.create(50)
        plan = CapacityPlan.for_layout(lay)
        # Tier assignment must be contiguous in rank: once we step down
        # to a smaller tier we never step back up.
        seen = []
        for cap in plan.capacities:
            if not seen or cap != seen[-1]:
                seen.append(cap)
        assert seen == sorted(set(seen), reverse=True)

    def test_capacity_covers_expected_share(self):
        lay = EqualWorkLayout.create(10)
        total = 10 * 10 ** 12
        plan = CapacityPlan.for_layout(lay, total_capacity=total)
        fracs = lay.expected_fractions()
        for rank in lay.ranks:
            needed = fracs[rank] * total
            assert (plan.capacity_of(rank) >= needed
                    or plan.capacity_of(rank) == max(plan.tiers))

    def test_utilisation(self):
        lay = EqualWorkLayout.create(3, p=1)
        plan = CapacityPlan.for_layout(lay)
        util = plan.utilisation({1: plan.capacity_of(1) // 2})
        assert util[1] == pytest.approx(0.5)
        assert util[2] == 0.0

    def test_bad_tiers_rejected(self):
        lay = EqualWorkLayout.create(5)
        with pytest.raises(ValueError):
            CapacityPlan.for_layout(lay, tiers=[0, 100])
