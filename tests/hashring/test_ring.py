"""HashRing: a value built from its weights — contents, lookups, walks,
arc shares."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashring.ring as ring_mod
from repro.hashring.ring import HashRing

WEIGHTS = dict.fromkeys(range(1, 6), 50)


@pytest.fixture
def ring():
    return HashRing(WEIGHTS)


def successor(ring, key):
    """The server owning the first vnode clockwise of *key*."""
    slot = ring.successor_slot(ring.key_position(key))
    return ring.servers[ring._owners[slot]]


class TestMembership:
    def test_add_and_contains(self, ring):
        assert 3 in ring
        assert 99 not in ring

    def test_len_counts_servers(self, ring):
        assert len(ring) == 5

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            HashRing({1: 10, 99: 0})
        with pytest.raises(ValueError):
            HashRing({1: -3})

    def test_fractional_weight_is_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=r"weights\[2\] must be an "
                                             r"integer, got 1\.5"):
            HashRing({1: 10, 2: 1.5})
        assert HashRing({1: np.int64(3)}).weight_of(1) == 3

    def test_num_vnodes(self, ring):
        assert ring.num_vnodes == 250

    def test_servers_insertion_order(self):
        r = HashRing({"b": 1, "a": 1})
        assert r.servers == ("b", "a")

    def test_built_once_from_its_weights(self):
        """The constructor copies the mapping it was given: changing
        the mapping afterwards changes nothing on the ring."""
        weights = {"a": 3, "b": 5}
        r = HashRing(weights)
        weights["c"] = 7
        weights["a"] = 1
        assert r.servers == ("a", "b") and r.num_vnodes == 8
        assert r.weight_of("a") == 3


class TestLookup:
    def test_successor_is_member(self, ring):
        assert successor(ring, "some-key") in ring.servers

    def test_successor_stable(self, ring):
        assert successor(ring, "k1") == successor(ring, "k1")

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing({}).successor_slot(5)

    def test_walk_servers_yields_all_distinct(self, ring):
        walked = list(ring.walk_servers(0))
        assert sorted(walked) == [1, 2, 3, 4, 5]

    def test_walk_after_membership_change(self, ring):
        """A server leaving is a walk that skips it: the same servers,
        in the same order, as a ring built without it."""
        without = HashRing({s: w for s, w in WEIGHTS.items() if s != 2})
        for key in range(50):
            position = ring.key_position(key)
            assert ([s for s in ring.walk_servers(position) if s != 2]
                    == list(without.walk_servers(position)))

    def test_minimal_movement_on_addition(self, ring):
        """Consistent hashing's core promise (Figure 1): adding a
        server only moves keys *onto* it, never between old servers."""
        keys = [f"key-{i}" for i in range(3000)]
        grown = HashRing({**WEIGHTS, 6: 50})
        moved_elsewhere = [
            k for k in keys
            if successor(grown, k) not in (successor(ring, k), 6)
        ]
        assert moved_elsewhere == []

    def test_movement_fraction_roughly_proportional(self, ring):
        keys = [f"key-{i}" for i in range(5000)]
        grown = HashRing({**WEIGHTS, 6: 50})
        moved = sum(1 for k in keys if successor(grown, k) != successor(ring, k))
        # New server owns ~1/6 of the ring; allow generous slack.
        assert 0.08 < moved / len(keys) < 0.26


TOP = 2 ** 64 - 1


@st.composite
def colliding_rings(draw):
    """A ring whose vnode positions come from a pool of a few values
    (the ends of the circle among them), so several vnodes — of one
    server and of different servers — share a position."""
    pool = draw(st.lists(st.integers(0, TOP), min_size=1, max_size=5))
    pool += draw(st.lists(st.sampled_from([0, 1, TOP - 1, TOP]),
                          max_size=2))
    per_server = draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=1, max_size=6),
        min_size=1, max_size=5))
    return forced_ring(dict(enumerate(per_server)))


def forced_ring(per_server):
    """``HashRing`` over ``{server: its vnode positions}``, the positions
    forced through the ring's one whole-ring ``vnode_positions`` call —
    and proven to have reached the ring, so a seam the constructor
    stopped calling fails here instead of testing nothing."""
    forced = np.array([p for positions in per_server.values()
                       for p in positions], dtype=np.uint64)
    with mock.patch.object(ring_mod, "vnode_positions",
                           lambda ids, counts: forced):
        ring = HashRing({sid: len(p) for sid, p in per_server.items()})
    assert sorted(ring._positions.tolist()) == sorted(forced.tolist())
    return ring


class TestScalarSuccessor:
    """``successor_slot`` (a bisect over Python ints) is the same
    function as the array ``searchsorted`` it replaced and as the bulk
    lookup, ties and wrap-around included."""

    @given(ring=colliding_rings())
    @settings(max_examples=200, deadline=None)
    def test_equals_searchsorted_and_bulk(self, ring):
        positions = ring._positions
        nslots = positions.size
        probes = {0, TOP}
        for at in positions.tolist():
            probes |= {at, max(at - 1, 0), min(at + 1, TOP)}
        for p in sorted(probes):
            want = int(np.searchsorted(positions, np.uint64(p),
                                       side="left")) % nslots
            assert ring.successor_slot(p) == want
            assert ring.bulk_successor_slots(
                np.array([p], dtype=np.uint64))[0] == want
            assert next(ring.walk_servers(p)) == \
                ring.servers[ring._owners[want]]

    def test_wraps_past_the_last_vnode(self, ring):
        nslots = ring.num_vnodes
        last = int(ring._positions[-1])
        assert last < TOP
        assert ring.successor_slot(last) == nslots - 1
        assert ring.successor_slot(last + 1) == 0
        assert next(ring.walk_servers(last + 1)) == \
            ring.servers[ring._owners[0]]

    def test_walk_servers_on_empty_ring_is_silent(self):
        assert list(HashRing({}).walk_servers(5)) == []


class TestBulkSuccessor:
    def test_matches_scalar(self, ring):
        positions = np.array([ring.key_position(f"k{i}") for i in range(100)],
                             dtype=np.uint64)
        bulk = ring.bulk_successor_slots(positions)
        assert bulk.tolist() == [ring.successor_slot(int(p))
                                 for p in positions]

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing({}).bulk_successor_slots(np.array([1], dtype=np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           weights=st.dictionaries(st.integers(0, 30), st.integers(1, 12),
                                   min_size=1, max_size=6))
    def test_sorted_search_is_plain_searchsorted(self, data, weights):
        """The ascending-order search returns, needle for needle, what
        one ``searchsorted`` of the needles in their own order does —
        over duplicates, needles on a vnode and one past it, needles
        above the last vnode (the wrap), and arrays of length 0 and 1."""
        ring = HashRing(weights)
        on = st.sampled_from(ring._position_ints)
        needle = st.one_of(st.integers(0, TOP), on,
                           on.map(lambda p: min(p + 1, TOP)),
                           st.integers(ring._position_ints[-1], TOP))
        drawn = data.draw(st.lists(needle, max_size=40))
        repeats = data.draw(st.lists(st.sampled_from(drawn), max_size=10)
                            if drawn else st.just([]))
        order = data.draw(st.permutations(drawn + repeats))
        needles = np.array(order, dtype=np.uint64)
        want = np.searchsorted(ring._positions, needles) % ring.num_vnodes
        got = ring.bulk_successor_slots(needles)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


class TestArcShare:
    def test_shares_sum_to_one(self, ring):
        assert sum(ring.arc_share().values()) == pytest.approx(1.0)

    def test_share_tracks_weight(self):
        r = HashRing({"heavy": 3000, "light": 1000})
        share = r.arc_share()
        assert share["heavy"] == pytest.approx(0.75, abs=0.05)

    def test_empty_ring(self):
        assert HashRing({}).arc_share() == {}
