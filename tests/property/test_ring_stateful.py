"""Stateful property test of the HashRing against a brute-force model.

The model recomputes successor lists from first principles (hash every
vnode, sort, scan); a ring built from the weights must agree after any
sequence of adds, removes, and re-weightings of those weights.
"""

from itertools import islice

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.hashring.hashing import hash64
from repro.hashring.ring import HashRing
from tests.hashring._reference_hash import MASK64, splitmix64

PROBE_KEYS = [f"probe-{i}" for i in range(25)]


def model_successors(weights, key, r):
    """Brute-force placement: hash all vnodes, sort, walk."""
    entries = []
    for idx, (sid, w) in enumerate(weights.items()):
        for j in range(w):
            pos = splitmix64((hash64(sid) + j) & MASK64)
            entries.append((pos, idx, j, sid))
    entries.sort()
    kpos = hash64(key)
    start = 0
    while start < len(entries) and entries[start][0] < kpos:
        start += 1
    out = []
    seen = set()
    for i in range(len(entries)):
        sid = entries[(start + i) % len(entries)][3]
        if sid not in seen:
            seen.add(sid)
            out.append(sid)
            if len(out) == r:
                break
    return out


class RingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.weights = {}
        self.ring = HashRing(self.weights)
        self.counter = 0

    @rule(weight=st.integers(min_value=1, max_value=40))
    def add_server(self, weight):
        sid = f"s{self.counter}"
        self.counter += 1
        self.weights[sid] = weight
        self.ring = HashRing(self.weights)

    @precondition(lambda self: len(self.weights) > 1)
    @rule(data=st.data())
    def remove_server(self, data):
        sid = data.draw(st.sampled_from(sorted(self.weights)))
        del self.weights[sid]
        self.ring = HashRing(self.weights)

    @precondition(lambda self: self.weights)
    @rule(data=st.data(),
          weight=st.integers(min_value=1, max_value=40))
    def reweight_server(self, data, weight):
        sid = data.draw(st.sampled_from(sorted(self.weights)))
        self.weights[sid] = weight
        self.ring = HashRing(self.weights)

    # ------------------------------------------------------------------
    @invariant()
    def vnode_count_matches(self):
        assert self.ring.num_vnodes == sum(self.weights.values())

    @invariant()
    def successors_match_model(self):
        if not self.weights:
            return
        r = min(2, len(self.weights))
        for key in PROBE_KEYS[:5]:
            expected = model_successors(self.weights, key, r)
            actual = list(islice(
                self.ring.walk_servers(self.ring.key_position(key)), r))
            assert actual == expected, (key, actual, expected)

    @invariant()
    def arc_shares_sum_to_one(self):
        if self.weights:
            assert abs(sum(self.ring.arc_share().values()) - 1.0) < 1e-9


TestRingMachine = RingMachine.TestCase
TestRingMachine.settings = settings(max_examples=30,
                                    stateful_step_count=20,
                                    deadline=None)
