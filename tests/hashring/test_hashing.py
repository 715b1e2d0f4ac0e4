"""Hash-function behaviour: stability, distribution, key encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashring.hashing import (
    _FNV_OFFSET,
    _FNV_PRIME,
    bulk_hash,
    bulk_hash_concat,
    hash64,
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
        assert bulk_hash([np_int(5), np_int(7)]).tolist() == \
            [hash64(5), hash64(7)]

    def test_different_keys_differ(self):
        assert hash64("a") != hash64("b")

    def test_range_is_64_bit(self):
        for key in ["", "x", "a-long-key" * 50, 0, 2**63]:
            h = hash64(key)
            assert 0 <= h < 2**64

    def test_unknown_method_rejected(self):
        """There is one hash family and no way to ask for another —
        the ring, the kernel's rehash chain, the replicated KV and the
        serving draws could never have agreed on a second one."""
        for method in ("md5", "fnv1a"):
            with pytest.raises(TypeError):
                hash64("key", method)  # type: ignore[call-arg]

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            hash64(3.14)  # type: ignore[arg-type]

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


def _bulk_fnv1a_uint64_oracle(vals: np.ndarray) -> np.ndarray:
    """``_bulk_fnv1a_uint64`` as it stood before ``bulk_hash_concat``
    replaced it (group by decimal length, fold each group), verbatim."""
    out = np.empty(vals.shape, dtype=np.uint64)
    offset = np.uint64(_FNV_OFFSET)
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):
        lo = np.uint64(0)
        for ndigits in range(1, 21):
            hi = np.uint64(10 ** ndigits) if ndigits < 20 else None
            mask = (vals >= lo) if hi is None else (vals >= lo) & (vals < hi)
            if ndigits == 1:
                mask |= vals == 0
            lo = hi if hi is not None else lo
            if not mask.any():
                continue
            group = vals[mask]
            h = np.full(group.shape, offset, dtype=np.uint64)
            for j in range(ndigits - 1, -1, -1):
                digit = (group // np.uint64(10) ** np.uint64(j)) % np.uint64(10)
                h ^= digit + np.uint64(48)   # ord('0')
                h *= prime
            out[mask] = h
    return splitmix64_array(out)


#: 0, 9/10, 99/100, ..., 10**19 and the uint64 maximum: every decimal
#: length and both sides of every length boundary.
_EDGES = sorted({0, 2 ** 64 - 1}
                | {10 ** d for d in range(20)}
                | {10 ** d - 1 for d in range(1, 20)})
_uint64s = st.one_of(st.sampled_from(_EDGES),
                     st.integers(0, 2 ** 64 - 1),
                     st.integers(0, 5_000))
_strs = st.one_of(st.just(""), st.sampled_from([":", "7:open:", ":oid"]),
                  st.text(max_size=6),
                  st.text(alphabet="é✓𝄞:0", max_size=4))


@st.composite
def _templates(draw):
    """``(parts, rows)``: a template of ``str`` parts and equal-length
    integer columns, and the strings it stands for, row by row."""
    size = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5)
                 .filter(any))
    parts = [np.array(draw(st.lists(_uint64s, min_size=size,
                                    max_size=size)), dtype=np.uint64)
             if is_column else draw(_strs) for is_column in kinds]
    rows = ["".join(p if isinstance(p, str) else str(int(p[i]))
                    for p in parts) for i in range(size)]
    return parts, rows


class TestBulkHashConcat:
    @settings(max_examples=300, deadline=None)
    @given(_templates())
    def test_matches_scalar_hash_of_the_joined_string(self, template):
        parts, rows = template
        before = [p if isinstance(p, str) else p.copy() for p in parts]
        got = bulk_hash_concat(*parts)
        assert got.dtype == np.uint64
        assert got.tolist() == [hash64(row) for row in rows]
        for p, b in zip(parts, before):       # inputs are not mutated
            assert np.array_equal(p, b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_uint64s, min_size=1, max_size=40))
    def test_one_part_case_matches_the_old_integer_fold(self, values):
        arr = np.array(values, dtype=np.uint64)
        before = arr.copy()
        assert np.array_equal(bulk_hash_concat(arr),
                              _bulk_fnv1a_uint64_oracle(arr))
        assert np.array_equal(bulk_hash(arr), _bulk_fnv1a_uint64_oracle(arr))
        assert np.array_equal(arr, before)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_uint64s, min_size=1, max_size=6),
           st.lists(_uint64s, min_size=1, max_size=6), _strs, _strs)
    def test_column_against_row_broadcasts_to_a_grid(self, rows, cols,
                                                     prefix, suffix):
        grid = bulk_hash_concat(
            prefix, np.array(rows, dtype=np.uint64)[:, None], ":",
            np.array(cols, dtype=np.uint64)[None, :], suffix)
        assert grid.tolist() == [
            [hash64(f"{prefix}{r}:{c}{suffix}") for c in cols] for r in rows]

    def test_signed_and_platform_integer_arrays(self):
        for dtype in (np.int64, np.int32, np.intp):
            arr = np.array([0, 7, 10, 123_456], dtype=dtype)
            assert bulk_hash_concat("k", arr).tolist() == [
                hash64(f"k{int(v)}") for v in arr]

    def test_empty_and_constant_only(self):
        assert bulk_hash_concat("a", np.empty(0, dtype=np.int64)).shape == (0,)
        assert int(bulk_hash_concat("a", "bc")) == hash64("abc")

    @pytest.mark.parametrize("bad", [np.array([3, -1]), np.array([0.5])])
    def test_rejects_what_has_no_decimal_digits(self, bad):
        with pytest.raises(ValueError, match="non-negative integers"):
            bulk_hash_concat("k", bad)


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
