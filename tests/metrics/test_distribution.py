"""Distribution statistics for layout validation."""

import pytest

from repro.metrics.distribution import (
    equal_work_reference,
    shape_correlation,
)


class TestEqualWorkReference:
    def test_primaries_equal_and_half_total(self):
        ref = equal_work_reference(10, 2)
        assert ref[1] == ref[2] == pytest.approx(0.25)
        assert sum(ref.values()) == pytest.approx(1.0)

    def test_secondaries_decay_as_one_over_i(self):
        ref = equal_work_reference(10, 2)
        assert ref[4] / ref[8] == pytest.approx(2.0)

    def test_equal_work_is_monotone(self):
        ref = equal_work_reference(10, 2)
        shares = [ref[rank] for rank in sorted(ref)]
        assert all(a >= b for a, b in zip(shares, shares[1:]))

    def test_three_way_replication_matches_the_observed_layout(self):
        # r = 3: primaries hold one copy of three, not half of all
        # replicas (the r = 2 constant the reference used to assume).
        from repro.core.elastic import ElasticConsistentHash
        ech = ElasticConsistentHash(n=10, replicas=3)
        counts = ech.blocks_per_rank(range(20_000))
        total = sum(counts.values())
        observed = {rank: c / total for rank, c in counts.items()}
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
