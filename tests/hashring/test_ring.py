"""HashRing: membership, lookups, walks, views, arc shares."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashring.ring as ring_mod
from repro.hashring.ring import HashRing


@pytest.fixture
def ring():
    r = HashRing()
    for rank in range(1, 6):
        r.add_server(rank, weight=50)
    return r


class TestMembership:
    def test_add_and_contains(self, ring):
        assert 3 in ring
        assert 99 not in ring

    def test_len_counts_servers(self, ring):
        assert len(ring) == 5

    def test_duplicate_add_rejected(self, ring):
        with pytest.raises(ValueError):
            ring.add_server(1)

    def test_remove(self, ring):
        ring.remove_server(5)
        assert 5 not in ring
        assert len(ring) == 4

    def test_remove_unknown_rejected(self, ring):
        with pytest.raises(KeyError):
            ring.remove_server(42)

    def test_weight_validation(self, ring):
        with pytest.raises(ValueError):
            ring.add_server(99, weight=0)
        with pytest.raises(ValueError):
            ring.set_weight(1, -3)

    def test_set_weight_changes_vnode_count(self, ring):
        before = ring.num_vnodes
        ring.set_weight(1, 150)
        assert ring.num_vnodes == before + 100

    def test_set_weight_unknown_rejected(self, ring):
        with pytest.raises(KeyError):
            ring.set_weight(42, 10)

    def test_num_vnodes(self, ring):
        assert ring.num_vnodes == 250

    def test_servers_insertion_order(self):
        r = HashRing()
        r.add_server("b")
        r.add_server("a")
        assert r.servers == ("b", "a")


class TestLookup:
    def test_successor_is_member(self, ring):
        assert ring.successor("some-key") in ring.servers

    def test_successor_stable(self, ring):
        assert ring.successor("k1") == ring.successor("k1")

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().successor("k")

    def test_find_returns_distinct_servers(self, ring):
        servers = ring.find("key", r=3)
        assert len(servers) == 3
        assert len(set(servers)) == 3

    def test_find_with_predicate(self, ring):
        servers = ring.find("key", r=2, predicate=lambda s: s != 1)
        assert 1 not in servers

    def test_find_too_many_raises(self, ring):
        with pytest.raises(LookupError):
            ring.find("key", r=6)

    def test_walk_servers_yields_all_distinct(self, ring):
        walked = list(ring.walk_servers(0))
        assert sorted(walked) == [1, 2, 3, 4, 5]

    def test_walk_after_membership_change(self, ring):
        """Regression: the walk must see a rebuilt ring even when the
        generator is created before the first lookup."""
        ring.remove_server(2)
        assert sorted(ring.walk_servers(0)) == [1, 3, 4, 5]

    def test_minimal_movement_on_addition(self, ring):
        """Consistent hashing's core promise (Figure 1): adding a
        server only moves keys *onto* it, never between old servers."""
        keys = [f"key-{i}" for i in range(3000)]
        before = {k: ring.successor(k) for k in keys}
        ring.add_server(6, weight=50)
        moved_elsewhere = [
            k for k in keys
            if ring.successor(k) != before[k] and ring.successor(k) != 6
        ]
        assert moved_elsewhere == []

    def test_movement_fraction_roughly_proportional(self, ring):
        keys = [f"key-{i}" for i in range(5000)]
        before = {k: ring.successor(k) for k in keys}
        ring.add_server(6, weight=50)
        moved = sum(1 for k in keys if ring.successor(k) != before[k])
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
    ring = HashRing()
    for sid, positions in enumerate(per_server):
        ring.add_server(sid, weight=len(positions))
    with mock.patch.object(
            ring_mod, "vnode_positions",
            lambda sid, count: np.array(per_server[sid], dtype=np.uint64)):
        assert ring.num_vnodes == sum(map(len, per_server))
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
            assert next(ring.walk_slots(p)) == want

    def test_wraps_past_the_last_vnode(self, ring):
        nslots = ring.num_vnodes
        last = int(ring._positions[-1])
        assert last < TOP
        assert ring.successor_slot(last) == nslots - 1
        assert ring.successor_slot(last + 1) == 0
        assert list(ring.walk_slots(last + 1))[:2] == [0, 1]

    def test_walk_slots_on_empty_ring_is_silent(self):
        assert list(HashRing().walk_slots(5)) == []


class TestBulkSuccessor:
    def test_matches_scalar(self, ring):
        positions = np.array([ring.key_position(f"k{i}") for i in range(100)],
                             dtype=np.uint64)
        bulk = ring.bulk_successor(positions)
        servers = [ring.servers[i] for i in bulk]
        assert servers == [ring.successor(f"k{i}") for i in range(100)]

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().bulk_successor(np.array([1], dtype=np.uint64))


class TestArcShare:
    def test_shares_sum_to_one(self, ring):
        assert sum(ring.arc_share().values()) == pytest.approx(1.0)

    def test_share_tracks_weight(self):
        r = HashRing()
        r.add_server("heavy", weight=3000)
        r.add_server("light", weight=1000)
        share = r.arc_share()
        assert share["heavy"] == pytest.approx(0.75, abs=0.05)

    def test_empty_ring(self):
        assert HashRing().arc_share() == {}


class TestRingView:
    def test_view_filters_servers(self, ring):
        view = ring.view(lambda s: s % 2 == 1)
        assert sorted(view.servers()) == [1, 3, 5]

    def test_view_find_respects_predicate(self, ring):
        view = ring.view(lambda s: s != 2)
        assert 2 not in view.find("key", r=4)

    def test_view_walk(self, ring):
        view = ring.view(lambda s: s in (1, 2))
        assert sorted(view.walk_servers(0)) == [1, 2]
