"""Property-based tests for the placement invariants (DESIGN.md §5)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashring.ring as ring_mod

from repro.core.elastic import ElasticConsistentHash
from repro.core.layout import EqualWorkLayout, primary_count
from repro.core.placement import place_original, place_primary
from repro.hashring.ring import HashRing

# Rings are expensive to build; cache by configuration.
_ring_cache = {}


def get_ring(n, B=2_000):
    key = (n, B)
    if key not in _ring_cache:
        layout = EqualWorkLayout.create(n, B=B)
        ring = HashRing({rank: layout.weight_of(rank)
                         for rank in layout.ranks})
        _ring_cache[key] = (ring, layout)
    return _ring_cache[key]


cluster_sizes = st.integers(min_value=4, max_value=24)
oids = st.integers(min_value=0, max_value=2**48)
chains = st.sampled_from(["walk", "rehash"])


class TestPrimaryPlacementProperties:
    @given(n=cluster_sizes, oid=oids, chain=chains,
           r=st.integers(min_value=2, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_one_primary_and_distinct(self, n, oid, chain, r):
        ring, layout = get_ring(n)
        if n < r:
            return
        res = place_primary(ring, oid, r, layout.is_primary,
                            lambda s: True, chain=chain)
        assert len(set(res.servers)) == r
        assert sum(1 for s in res.servers if layout.is_primary(s)) == 1
        assert not res.degraded

    @given(n=cluster_sizes, oid=oids, chain=chains,
           k=st.integers(min_value=0, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_active_only_under_any_prefix(self, n, oid, chain, k):
        """Any expansion-chain prefix with >= max(p, r) active servers
        yields a valid all-active placement."""
        ring, layout = get_ring(n)
        active_count = max(layout.p, 2, min(n, layout.p + k))
        is_active = lambda s: s <= active_count
        res = place_primary(ring, oid, 2, layout.is_primary, is_active,
                            chain=chain)
        assert all(s <= active_count for s in res.servers)
        assert len(set(res.servers)) == 2

    @given(n=cluster_sizes, oid=oids, chain=chains)
    @settings(max_examples=100, deadline=None)
    def test_purity(self, n, oid, chain):
        ring, layout = get_ring(n)
        a = place_primary(ring, oid, 2, layout.is_primary,
                          lambda s: True, chain=chain)
        b = place_primary(ring, oid, 2, layout.is_primary,
                          lambda s: True, chain=chain)
        assert a.servers == b.servers


class TestOriginalPlacementProperties:
    @given(n=cluster_sizes, oid=oids,
           r=st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_distinct_servers(self, n, oid, r):
        ring, _ = get_ring(n)
        if n < r:
            return
        res = place_original(ring, oid, r)
        assert len(set(res.servers)) == r

    @given(oid=oids)
    @settings(max_examples=100, deadline=None)
    def test_monotonicity_on_growth(self, oid):
        """Ring monotonicity: growing the ring never moves a key
        between two pre-existing servers (first replica)."""
        weights = dict.fromkeys(range(1, 8), 64)
        before = place_original(HashRing(weights), oid, 1).servers[0]
        after = place_original(HashRing({**weights, 99: 64}), oid,
                               1).servers[0]
        assert after in (before, 99)


def _members_alone(weights, members):
    """*weights* restricted to *members*, in the weights' own order (the
    order owner indices break position ties by)."""
    return {sid: w for sid, w in weights.items() if sid in members}


def _assert_skip_is_leave(weights, members, oid, r, build=HashRing):
    full, alone = build(weights), build(_members_alone(weights, members))
    if r > len(members):
        with pytest.raises(LookupError):
            place_original(full, oid, r, is_active=members.__contains__)
        with pytest.raises(LookupError):
            place_original(alone, oid, r)
        return
    skipped = place_original(full, oid, r, is_active=members.__contains__)
    assert skipped.servers == place_original(alone, oid, r).servers


server_weights = st.dictionaries(st.integers(1, 12), st.integers(1, 40),
                                 min_size=1, max_size=8)


class TestSkipIsLeave:
    """The premise the original-CH baseline rests on: a server that left
    the ring and a server the walk skips are the same thing.  Walking
    the full ring past non-members gives the same replicas, in the same
    order, as walking a ring built from the members alone."""

    @given(data=st.data(), weights=server_weights, oid=oids,
           r=st.integers(min_value=1, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_hashed_positions(self, data, weights, oid, r):
        members = data.draw(st.frozensets(st.sampled_from(sorted(weights)),
                                          min_size=1))
        _assert_skip_is_leave(weights, members, oid, r)

    @given(data=st.data(), r=st.integers(min_value=1, max_value=3),
           oid=oids)
    @settings(max_examples=300, deadline=None)
    def test_colliding_positions(self, data, r, oid):
        """Vnodes drawn from a pool of a few positions, so servers share
        positions and owner order breaks the ties."""
        pool = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                                  max_size=4))
        per_server = data.draw(st.dictionaries(
            st.integers(1, 12),
            st.lists(st.sampled_from(pool), min_size=1, max_size=5),
            min_size=1, max_size=8))
        members = data.draw(st.frozensets(
            st.sampled_from(sorted(per_server)), min_size=1))

        def forced_ring(weights):
            """The ring over *weights*, its positions forced through
            the one whole-ring ``vnode_positions`` call — and proven to
            have reached it, so a seam the ring stopped calling fails
            instead of testing nothing."""
            forced = np.array([p for sid in weights for p in per_server[sid]],
                              dtype=np.uint64)
            with mock.patch.object(ring_mod, "vnode_positions",
                                   lambda ids, counts: forced):
                ring = HashRing(weights)
            assert sorted(ring._positions.tolist()) == sorted(forced.tolist())
            return ring

        _assert_skip_is_leave({sid: len(p) for sid, p in per_server.items()},
                              members, oid, r, build=forced_ring)


class TestVersionedPlacementProperties:
    @given(oid=oids,
           resizes=st.lists(st.integers(min_value=2, max_value=10),
                            min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_historical_placements_stable(self, oid, resizes):
        """Placement under version v never changes, no matter how many
        versions follow (the Algorithm 2 prerequisite)."""
        ech = ElasticConsistentHash(n=10, replicas=2, B=2_000)
        recorded = {1: ech.locate(oid, 1).servers}
        for k in resizes:
            before = ech.current_version
            ech.set_active(k)
            if ech.current_version != before:
                recorded[ech.current_version] = ech.locate(
                    oid, ech.current_version).servers
        for version, servers in recorded.items():
            assert ech.locate(oid, version).servers == servers
