"""The stable 64-bit hash behind ring positions and object keys.

Consistent hashing needs a hash that is (a) stable across processes —
Python's builtin ``hash`` is salted per process and therefore unusable —
(b) well distributed over the 64-bit space, and (c) cheap for bulk use.

There is one family, used by everything that hashes (ring, kernel,
replicated KV, serving draws, retry jitter): 64-bit FNV-1a — what
modern Sheepdog's ``sd_hash`` is — followed by a splitmix64 avalanche
finalizer.  Plain FNV-1a mixes its *high* bits poorly on short keys
(vnode labels like ``"5#17"``), which measurably skews ring arc
shares; the finalizer restores full avalanche at negligible cost.

It accepts ``str``, ``bytes`` and integer keys; integers (NumPy ones
included) are encoded as their decimal string so that object ids hash
identically whether the caller stores them as ints or strings.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Union

import numpy as np

__all__ = ["hash64", "vnode_positions"]

Key = Union[str, bytes, int]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _to_bytes(key: Key) -> bytes:
    """Canonical byte encoding for a key.

    Integers map to their decimal representation so ``hash64(42)`` and
    ``hash64("42")`` agree — object ids cross the int/str boundary at
    several API layers and must land on the same ring position.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, int):
        return b"%d" % key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, Integral):    # NumPy integers: the same oid
        return b"%d" % int(key)
    raise TypeError(f"unhashable key type for ring hashing: {type(key)!r}")


def _splitmix64(h: int) -> int:
    """The splitmix64 finalizer: full 64-bit avalanche in three
    xor-shift-multiply rounds (Steele et al., the same mixer murmur3 and
    xxHash use as their tail)."""
    h = (h + 0x9E3779B97F4A7C15) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return _splitmix64(h)


def hash64(key: Key) -> int:
    """Hash *key* (object id, server id, or any ring key) to a position
    in ``[0, 2**64)``."""
    return _fnv1a64(_to_bytes(key))


def vnode_positions(server_id: Key, count: int,
                    start_index: int = 0) -> np.ndarray:
    """Ring positions for *count* virtual nodes of one server.

    Virtual node *j* of server *s* is placed at
    ``splitmix64(hash64(s) + j)`` — a counter-mode stream seeded by the
    server's own hash.  Like the conventional ``hash(f"{s}#{j}")``
    derivation it keeps positions stable when the vnode count changes
    (existing vnodes never move; new indices only append), which is what
    makes the equal-work layout's per-rank re-weighting cheap — but it
    vectorises: generating the ~10^4 vnodes of an equal-work ring is a
    handful of NumPy ops instead of 10^4 string hashes.

    Parameters
    ----------
    server_id:
        Physical server identifier.
    count:
        Number of virtual nodes to generate (may be 0).
    start_index:
        First vnode index; lets callers extend an existing set.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of length *count* (unsorted; duplicates across
        servers are possible but astronomically unlikely and handled by
        the ring's stable sort).
    """
    if count < 0:
        raise ValueError("vnode count must be >= 0")
    seed = np.uint64(hash64(server_id))
    idx = np.arange(start_index, start_index + count, dtype=np.uint64)
    return splitmix64_array(seed + idx)


def splitmix64_array(h: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer over a ``uint64`` array."""
    h = h.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        h += np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def bulk_hash_concat(*parts: Union[str, np.ndarray]) -> np.ndarray:
    """Element-wise ``hash64("".join(...))`` of a concatenation.

    Each part is a constant ``str`` or an array of non-negative integers
    standing for its decimal text; arrays broadcast against each other
    (a ``(rows, 1)`` column against a ``(1, k)`` row gives a grid).
    FNV-1a is a sequential byte fold, so it cannot be vectorised across
    byte *positions*; it can across *keys*: a constant byte is one
    whole-array xor-multiply, and an integer part folds most significant
    digit first, each pass touching only the elements long enough to
    have that digit.  Bit-identical to the scalar :func:`hash64`.
    """
    h = np.full(np.broadcast_shapes(
        *(p.shape for p in parts if not isinstance(p, str))),
        _FNV_OFFSET, dtype=np.uint64)
    if h.size == 0:
        return h
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):
        for part in parts:
            if isinstance(part, str):
                for byte in part.encode("utf-8"):
                    h ^= np.uint64(byte)
                    h *= prime
                continue
            if part.dtype.kind not in "iu" or int(part.min()) < 0:
                raise ValueError("bulk_hash_concat takes str parts and "
                                 "arrays of non-negative integers")
            vals = part.astype(np.uint64, copy=False)
            for j in range(len(str(int(vals.max()))) - 1, -1, -1):
                power = np.uint64(10 ** j)
                step = h ^ ((vals // power) % np.uint64(10)
                            + np.uint64(48))   # ord('0')
                step *= prime
                short = vals < power    # no such digit (0 keeps its one)
                h = np.where(short, h, step) if j and short.any() else step
    return splitmix64_array(h)


def bulk_hash(keys: Iterable[Key]) -> np.ndarray:
    """Hash an iterable of keys into a ``uint64`` array (bulk helper for
    vectorised placement and distribution analysis).

    Non-negative integer inputs (``range``, integer ndarrays) take a
    fully vectorised path — the enabler for ``locate_bulk`` placing
    100k-object sweeps without a per-key Python hash; anything else
    falls back to the scalar :func:`hash64` loop.  Both paths produce
    identical values.
    """
    arr = None
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        arr = keys
    elif isinstance(keys, range):
        arr = np.arange(keys.start, keys.stop, keys.step, dtype=np.int64) \
            if len(keys) else np.empty(0, dtype=np.int64)
    if arr is not None:
        if arr.size == 0:
            return np.empty(0, dtype=np.uint64)
        if arr.dtype.kind == "u" or int(arr.min()) >= 0:
            return bulk_hash_concat(arr)
        keys = (int(k) for k in arr)   # negatives: scalar fallback
    return np.fromiter(map(hash64, keys), dtype=np.uint64, count=-1)
