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

What is known in bulk is hashed in bulk, bit for bit as :func:`hash64`
would: a whole ring's vnodes (:func:`vnode_positions`), key arrays
(:func:`bulk_hash`, :func:`bulk_hash_concat`).
"""

from __future__ import annotations

from numbers import Integral
from typing import Hashable, Iterable, Sequence, Union

import numpy as np

__all__ = ["hash64", "vnode_positions"]

Key = Union[str, bytes, int]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


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


def hash64(key: Key) -> int:
    """Hash *key* (object id, server id, or any ring key) to a position
    in ``[0, 2**64)``: FNV-1a over :func:`_to_bytes`, then the
    splitmix64 finalizer (Steele et al., the same mixer murmur3 and
    xxHash use as their tail) in three xor-shift-multiply rounds.

    One frame, as the scalar hot path of every first ``locate``: a
    plain ``int`` key is encoded in place, and the fold and the
    finalizer are inlined with literal constants.
    """
    data = b"%d" % key if type(key) is int else _to_bytes(key)
    h = 0xCBF29CE484222325                         # _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    h = (h + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 31)


def vnode_positions(server_ids: Sequence[Hashable],
                    counts: Sequence[int]) -> np.ndarray:
    """Positions of every virtual node of a whole ring, in one pass.

    Virtual node *j* of server *s* is placed at
    ``splitmix64(hash64(s) + j)`` — a counter-mode stream seeded by the
    server's own hash (its ``repr`` for an id that is not a ``str``,
    ``bytes`` or ``int``).  Like the conventional ``hash(f"{s}#{j}")``
    derivation it keeps positions stable when the vnode count changes
    (existing vnodes never move; new indices only append), which is what
    makes the equal-work layout's per-rank re-weighting cheap — but it
    vectorises across servers too: one :func:`bulk_hash` of the server
    keys, one ``repeat`` of the seeds against the vnode offsets and one
    :func:`splitmix64_array`, whatever the ring's size.

    Parameters
    ----------
    server_ids:
        Physical server identifiers, in ring order.
    counts:
        Vnodes per server (each may be 0), aligned with *server_ids*.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of ``sum(counts)`` positions, server by server
        and vnode by vnode (unsorted; duplicates are possible but
        astronomically unlikely and handled by the ring's stable sort).
    """
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if counts.size != len(server_ids) or (counts < 0).any():
        raise ValueError("need one vnode count >= 0 per server")
    seeds = bulk_hash([s if isinstance(s, (str, bytes, int)) else repr(s)
                       for s in server_ids])
    # seed + (vnode's ring index - its server's first), in place: at
    # most two ring-sized arrays alive.
    first = (np.cumsum(counts) - counts).astype(np.uint64)
    h = np.arange(int(counts.sum()), dtype=np.uint64)
    h -= np.repeat(first, counts)
    h += np.repeat(seeds, counts)              # wraps mod 2**64
    return splitmix64_array(h)


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

    Non-negative integer inputs (``range``, integer ndarrays, and
    lists or tuples of plain ``int`` below ``2**63``) take a fully
    vectorised path — the enabler for ``locate_bulk`` placing
    100k-object sweeps without a per-key Python hash; anything else
    (strings, bools, negatives, larger ints, mixed types) falls back
    to the scalar :func:`hash64` loop.  Both paths produce identical
    values.
    """
    arr = None
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        arr = keys
    elif isinstance(keys, range):
        arr = np.arange(keys.start, keys.stop, keys.step, dtype=np.int64) \
            if len(keys) else np.empty(0, dtype=np.int64)
    elif isinstance(keys, (list, tuple)) and set(map(type, keys)) == {int}:
        try:
            arr = np.array(keys, dtype=np.int64)
        except OverflowError:      # beyond int64: scalar fallback
            pass
    if arr is not None:
        if arr.size == 0:
            return np.empty(0, dtype=np.uint64)
        if arr.dtype.kind == "u" or int(arr.min()) >= 0:
            return bulk_hash_concat(arr)
        keys = (int(k) for k in arr)   # negatives: scalar fallback
    return np.fromiter(map(hash64, keys), dtype=np.uint64, count=-1)
