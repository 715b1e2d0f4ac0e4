"""Consistent-hashing substrate: hash functions, the hash ring, and
virtual-node weight assignment.

This subpackage is the layer the paper's Sheepdog baseline sits on: a
classic consistent-hash ring (Karger et al., STOC '97) with virtual
nodes, extended so that every virtual node knows its physical server and
so that successor walks can filter servers by role (primary/secondary)
and power state — the hooks :mod:`repro.core.placement` needs.
"""

from repro.hashring.hashing import hash64, vnode_positions
from repro.hashring.ring import HashRing

__all__ = [
    "hash64",
    "vnode_positions",
    "HashRing",
]
