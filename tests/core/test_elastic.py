"""The ElasticConsistentHash facade."""

import numpy as np
import pytest

from repro.core.elastic import ElasticConsistentHash


class TestConstruction:
    def test_defaults(self, ech10):
        assert ech10.n == 10
        assert ech10.p == 2
        assert ech10.replicas == 2
        assert ech10.is_full_power
        assert ech10.current_version == 1

    def test_weights_follow_layout(self, ech10):
        for rank in ech10.layout.ranks:
            assert ech10.ring.weight_of(rank) == ech10.layout.weight_of(rank)

    def test_uniform_layout_mode(self):
        ech = ElasticConsistentHash(n=10, layout_mode="uniform")
        assert len({ech.ring.weight_of(r) for r in range(1, 11)}) == 1

    def test_original_placement_mode(self):
        ech = ElasticConsistentHash(n=10, placement_mode="original")
        res = ech.locate(123)
        assert len(set(res.servers)) == 2

    def test_bad_modes_rejected(self):
        with pytest.raises(ValueError):
            ElasticConsistentHash(n=10, layout_mode="bogus")
        with pytest.raises(ValueError):
            ElasticConsistentHash(n=10, placement_mode="bogus")

    def test_describe_mentions_shape(self, ech10):
        text = ech10.describe()
        assert "n=10" in text and "p=2" in text


class TestResizing:
    def test_set_active_creates_version(self, ech10):
        ech10.set_active(6)
        assert ech10.current_version == 2
        assert ech10.num_active == 6
        assert not ech10.is_full_power

    def test_active_set_is_chain_prefix(self, ech10):
        ech10.set_active(4)
        assert ech10.membership.active_ranks() == [1, 2, 3, 4]

    def test_clamped_at_primary_floor(self, ech10):
        ech10.set_active(1)
        assert ech10.num_active == ech10.min_active == 2

    def test_clamped_at_n(self, ech10):
        ech10.set_active(99)
        assert ech10.num_active == 10
        assert ech10.current_version == 1  # no-op: no new version

    def test_noop_resize_creates_no_version(self, ech10):
        ech10.set_active(10)
        assert ech10.current_version == 1

    def test_is_active_per_version(self, ech10):
        ech10.set_active(5)
        assert ech10.is_active(8, version=1)
        assert not ech10.is_active(8, version=2)
        assert not ech10.is_active(8)


class TestLocate:
    def test_pure_function_of_oid_and_version(self, ech10):
        before = ech10.locate(777).servers
        ech10.set_active(5)
        ech10.set_active(10)
        assert ech10.locate(777, version=1).servers == before
        assert ech10.locate(777, version=3).servers == before

    def test_historical_membership_respected(self, ech10):
        ech10.set_active(4)
        res = ech10.locate(777, version=2)
        assert all(s <= 4 for s in res.servers)

    def test_unknown_version_rejected(self, ech10):
        with pytest.raises(KeyError):
            ech10.locate(1, version=5)

    def test_one_primary_copy(self, ech10):
        for oid in range(200):
            res = ech10.locate(oid)
            assert sum(1 for s in res.servers if ech10.is_primary(s)) == 1


    @pytest.mark.parametrize("walk", [
        [None, None, None],
        [1, 2, 3, 4],
        [4, 3, 2, 1],
        [1, None, 2, None, 1],
        [None, 1, None, 1],
        [3, 3, None, 3],
    ])
    def test_locate_answers_the_version_asked_whatever_came_before(
            self, walk):
        """``locate`` keeps the membership it last placed under; a run
        of calls under any sequence of versions still answers each
        one's placement (the per-object ring walk as oracle)."""
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        for k in (6, 4, 8):                 # versions 2, 3 and 4
            ech.set_active(k)
        for version in walk:
            table = (ech.history.current if version is None
                     else ech.history.get(version))
            for oid in range(0, 300, 7):
                assert ech.locate(oid, version) == \
                    ech._locate_reference(oid, table), (version, oid)

    @pytest.mark.parametrize("change", ["resize", "crash", "repair"])
    def test_a_new_version_is_seen_by_the_next_locate(self, change):
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        ech.set_active(7)
        if change == "repair":
            ech.mark_failed(5)
        before = [ech.locate(oid) for oid in range(100)]
        if change == "resize":
            ech.set_active(4)
        elif change == "crash":
            ech.mark_failed(3)
        else:
            ech.mark_repaired(5)
            ech.set_active(9)
        table = ech.history.current
        after = [ech.locate(oid) for oid in range(100)]
        assert after == [ech._locate_reference(oid, table)
                         for oid in range(100)]
        assert after != before

    def test_locate_outlives_the_kernels_table_cache(self):
        """More versions than the kernel keeps tables for: every
        version still locates to its own placement."""
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        for step in range(2 * 16):
            ech.set_active(3 + step % 7)
            ech.locate(step)
        for version in range(1, ech.current_version + 1):
            table = ech.history.get(version)
            for oid in (0, 11, 57, 123):
                assert ech.locate(oid, version) == \
                    ech._locate_reference(oid, table), (version, oid)

    @pytest.mark.parametrize("numpy_first", [True, False])
    def test_numpy_integer_oid_is_the_same_object(self, numpy_first):
        """Regression: ``locate(np.int64(o))`` hashed ``repr(o)``, placed
        188 of 199 oids elsewhere than ``locate(o)`` — and, the two
        being equal dict keys, left that slot in the oid→slot cache for
        the next ``locate(o)``."""
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        want = ElasticConsistentHash(n=10, replicas=2, B=200)
        for o in range(1, 200):
            shapes = [lambda: ech.locate(np.int64(o)),
                      lambda: ech.locate(o)]
            if not numpy_first:
                shapes.reverse()
            got = [shape() for shape in shapes]
            bulk = ech.locate_bulk(np.array([o]))
            ref = want._locate_reference(o, want.history.current)
            assert got[0] == got[1] == bulk.result(0) == ref
        assert ech.ring.key_position(np.int64(7)) == \
            ech.ring.key_position(7)


class TestRecordWrite:
    def test_full_power_write_is_clean(self, ech10):
        ech10.record_write(42)
        assert ech10.dirty.is_empty()
        assert not ech10.is_dirty(42)
        assert ech10.last_written[42] == 1

    def test_reduced_power_write_is_dirty(self, ech10):
        ech10.set_active(5)
        ech10.record_write(42)
        assert ech10.is_dirty(42)
        assert ech10.dirty.contains(42, 2)

    def test_rewrite_updates_header_version(self, ech10):
        ech10.set_active(5)
        ech10.record_write(42)
        ech10.set_active(6)
        ech10.record_write(42)
        assert ech10.last_written[42] == 3
        assert len(ech10.dirty.entries()) == 2


class TestAnalysisHelpers:
    def test_blocks_per_rank_totals(self, ech10):
        counts = ech10.blocks_per_rank(range(500))
        assert sum(counts.values()) == 1000  # 500 objects x 2 replicas
        # Exactly one copy per object on the primaries.
        assert counts[1] + counts[2] == 500

    def test_blocks_respect_version(self, ech10):
        ech10.set_active(5)
        counts = ech10.blocks_per_rank(range(200), version=2)
        assert all(counts[r] == 0 for r in range(6, 11))
