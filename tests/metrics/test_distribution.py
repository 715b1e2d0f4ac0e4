"""Distribution statistics for layout validation."""

import pytest

from repro.metrics.distribution import (
    distribution_stats,
    equal_work_reference,
    gini,
    normalized_shape,
    shape_correlation,
)


class TestNormalizedShape:
    def test_sums_to_one(self):
        shape = normalized_shape({1: 10, 2: 30})
        assert sum(shape.values()) == pytest.approx(1.0)
        assert shape[2] == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized_shape({})


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_concentrated_near_one(self):
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_all_zero(self):
        assert gini([0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([-1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    def test_scale_invariant(self):
        assert gini([1, 2, 3]) == pytest.approx(gini([10, 20, 30]))


class TestEqualWorkReference:
    def test_primaries_equal_and_half_total(self):
        ref = equal_work_reference(10, 2)
        assert ref[1] == ref[2] == pytest.approx(0.25)
        assert sum(ref.values()) == pytest.approx(1.0)

    def test_secondaries_decay_as_one_over_i(self):
        ref = equal_work_reference(10, 2)
        assert ref[4] / ref[8] == pytest.approx(2.0)

    def test_three_way_replication_matches_the_observed_layout(self):
        # r = 3: primaries hold one copy of three, not half of all
        # replicas (the r = 2 constant the reference used to assume).
        from repro.core.elastic import ElasticConsistentHash
        ech = ElasticConsistentHash(n=10, replicas=3)
        observed = normalized_shape(ech.blocks_per_rank(range(20_000)))
        ref = equal_work_reference(10, ech.p, replicas=3)
        assert sum(ref.values()) == pytest.approx(1.0)
        primaries = range(1, ech.p + 1)
        assert sum(ref[r] for r in primaries) == pytest.approx(1 / 3)
        assert sum(observed[r] for r in primaries) == pytest.approx(
            1 / 3, abs=0.01)
        assert max(abs(observed[r] - ref[r]) for r in ref) < 0.03

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            equal_work_reference(10, 0)
        with pytest.raises(ValueError):
            equal_work_reference(10, 10)


class TestShapeCorrelation:
    def test_perfect_correlation(self):
        ref = equal_work_reference(10, 2)
        scaled = {k: v * 1000 for k, v in ref.items()}
        assert shape_correlation(scaled, ref) == pytest.approx(1.0)

    def test_uncorrelated_shapes_lower(self):
        ref = equal_work_reference(10, 2)
        inverted = {k: ref[11 - k] for k in ref}
        assert shape_correlation(inverted, ref) < 0.5

    def test_requires_common_ranks(self):
        with pytest.raises(ValueError):
            shape_correlation({1: 1.0}, {2: 1.0})

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            shape_correlation({1: 1.0, 2: 1.0}, {1: 0.3, 2: 0.7})


class TestDistributionStats:
    def test_monotonicity_violations(self):
        stats = distribution_stats({1: 10, 2: 5, 3: 8, 4: 2})
        assert stats["monotonicity_violations"] == 1

    def test_equal_work_is_monotone(self):
        ref = equal_work_reference(10, 2)
        assert distribution_stats(ref)["monotonicity_violations"] == 0

    def test_bundle_fields(self):
        stats = distribution_stats({1: 10, 2: 10})
        assert stats["total"] == 20
        assert stats["max_over_mean"] == pytest.approx(1.0)
        assert "gini" in stats

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distribution_stats({})
