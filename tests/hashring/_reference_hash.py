"""The scalar hash as separate steps — the oracle for the one-frame
:func:`repro.hashring.hashing.hash64`.

``fnv1a64(_to_bytes(key))`` is the byte fold ``hash64`` inlines: the
64-bit FNV-1a loop, then the splitmix64 finalizer, each its own call.
"""

from repro.hashring.hashing import _FNV_OFFSET, _FNV_PRIME

MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(h: int) -> int:
    """The splitmix64 finalizer: three xor-shift-multiply rounds."""
    h = (h + 0x9E3779B97F4A7C15) & MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & MASK64
    return h ^ (h >> 31)


def fnv1a64(data: bytes) -> int:
    """FNV-1a over *data*, one byte at a time, then :func:`splitmix64`."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return splitmix64(h)
