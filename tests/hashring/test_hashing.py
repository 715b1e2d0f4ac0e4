"""Hash-function behaviour: stability, distribution, key encoding."""

import numpy as np
import pytest

from repro.hashring.hashing import (
    bulk_hash,
    hash64,
    hash_key,
    splitmix64_array,
    vnode_positions,
)


class TestHash64:
    def test_deterministic_across_calls(self):
        assert hash64("object-42") == hash64("object-42")

    def test_int_and_str_keys_agree(self):
        assert hash64(42) == hash64("42")

    def test_bytes_and_str_agree(self):
        assert hash64(b"abc") == hash64("abc")

    @pytest.mark.parametrize("np_int", [np.int64, np.int32, np.uint64,
                                        np.intp])
    def test_numpy_integers_hash_as_their_value(self, np_int):
        """Regression: ``hash64(np.int64(5))`` raised ``TypeError``."""
        for value in (0, 5, 10010, 2 ** 31 - 1):
            assert hash64(np_int(value)) == hash64(value)
            assert hash64(np_int(value), "sha1") == hash64(value, "sha1")
        assert bulk_hash([np_int(5), np_int(7)]).tolist() == \
            [hash64(5), hash64(7)]

    def test_different_keys_differ(self):
        assert hash64("a") != hash64("b")

    def test_range_is_64_bit(self):
        for key in ["", "x", "a-long-key" * 50, 0, 2**63]:
            h = hash64(key)
            assert 0 <= h < 2**64

    def test_sha1_method_differs_from_fnv(self):
        assert hash64("key", "sha1") != hash64("key", "fnv1a")

    def test_sha1_deterministic(self):
        assert hash64("key", "sha1") == hash64("key", "sha1")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            hash64("key", "md5")  # type: ignore[arg-type]

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            hash64(3.14)  # type: ignore[arg-type]

    def test_hash_key_is_alias(self):
        assert hash_key("k") == hash64("k")

    def test_avalanche_on_sequential_ints(self):
        """Sequential object ids must land uniformly: chi-square over
        16 buckets of the top 4 bits."""
        hashes = np.array([hash64(i) for i in range(4000)], dtype=np.uint64)
        buckets = (hashes >> np.uint64(60)).astype(int)
        counts = np.bincount(buckets, minlength=16)
        expected = 4000 / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 dof, p=0.001 critical value is 37.7.
        assert chi2 < 37.7


class TestVnodePositions:
    def test_count(self):
        assert vnode_positions("s1", 7).shape == (7,)

    def test_zero_count(self):
        assert vnode_positions("s1", 0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            vnode_positions("s1", -1)

    def test_prefix_stability(self):
        """Growing the vnode count only appends — existing positions
        never move (what makes re-weighting cheap)."""
        small = vnode_positions("s1", 10)
        big = vnode_positions("s1", 50)
        assert np.array_equal(big[:10], small)

    def test_start_index_continues_stream(self):
        full = vnode_positions("s1", 20)
        tail = vnode_positions("s1", 10, start_index=10)
        assert np.array_equal(full[10:], tail)

    def test_servers_get_distinct_streams(self):
        a = vnode_positions("s1", 100)
        b = vnode_positions("s2", 100)
        assert len(np.intersect1d(a, b)) == 0

    def test_positions_spread_over_ring(self):
        pos = vnode_positions("server-x", 1000).astype(np.float64)
        # Mean should be near the middle of the 64-bit space.
        mid = 2.0**63
        assert abs(pos.mean() - mid) / mid < 0.1


class TestBulkHash:
    def test_matches_scalar(self):
        keys = ["a", "b", 7]
        bulk = bulk_hash(keys)
        assert list(bulk) == [hash64(k) for k in keys]

    def test_vectorised_int_path_matches_scalar(self):
        # The fnv1a fast path (digit-grouped vectorised fold) must be
        # bit-identical to the per-key loop: every decimal length,
        # zero, the uint64 extremes, and both array and range inputs.
        edge = [0, 1, 9, 10, 99, 100, 2**32, 2**63, 2**64 - 1]
        edge += [10**d for d in range(1, 20)]
        edge += [10**d - 1 for d in range(1, 20)]
        arr = np.array(edge, dtype=np.uint64)
        assert list(bulk_hash(arr)) == [hash64(int(k)) for k in edge]

        rng = np.random.default_rng(7)
        rand = rng.integers(0, 2**63, size=5_000).astype(np.uint64)
        assert list(bulk_hash(rand)) == [hash64(int(k)) for k in rand]

        r = range(10_000_000, 10_002_000)
        assert list(bulk_hash(r)) == [hash64(k) for k in r]

    def test_negative_ints_fall_back_to_scalar(self):
        arr = np.array([-5, 3, -(2**40)], dtype=np.int64)
        assert list(bulk_hash(arr)) == [hash64(int(k)) for k in arr]

    def test_empty_inputs(self):
        assert bulk_hash(range(0)).size == 0
        assert bulk_hash(np.empty(0, dtype=np.uint64)).size == 0


class TestSplitmix64Array:
    def test_matches_vnode_derivation(self):
        seed = np.uint64(hash64("srv"))
        idx = np.arange(5, dtype=np.uint64)
        assert np.array_equal(splitmix64_array(seed + idx),
                              vnode_positions("srv", 5))

    def test_does_not_mutate_input(self):
        arr = np.arange(4, dtype=np.uint64)
        before = arr.copy()
        splitmix64_array(arr)
        assert np.array_equal(arr, before)
