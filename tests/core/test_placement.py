"""Algorithm 1 — primary-server data placement (§III-B)."""

import pytest

from repro.core.layout import EqualWorkLayout
from repro.core.placement import place_original, place_primary
from repro.hashring.ring import HashRing


def make_ring(n=10, B=10_000):
    layout = EqualWorkLayout.create(n, B=B)
    ring = HashRing({rank: layout.weight_of(rank) for rank in layout.ranks})
    return ring, layout


@pytest.fixture(params=["walk", "rehash"])
def chain(request):
    return request.param


class TestPlaceOriginal:
    def test_r_distinct_servers(self, uniform_ring):
        res = place_original(uniform_ring, "obj", r=3)
        assert len(set(res.servers)) == 3

    def test_deterministic(self, uniform_ring):
        a = place_original(uniform_ring, "obj", r=2)
        b = place_original(uniform_ring, "obj", r=2)
        assert a.servers == b.servers

    def test_active_filter_skips(self, uniform_ring):
        full = place_original(uniform_ring, "obj", r=2)
        active = lambda s: s != full.servers[0]
        res = place_original(uniform_ring, "obj", r=2, is_active=active)
        assert full.servers[0] not in res.servers
        assert res.skipped_inactive

    def test_no_skip_flag_when_all_active(self, uniform_ring):
        res = place_original(uniform_ring, "obj", r=2,
                             is_active=lambda s: True)
        assert not res.skipped_inactive

    def test_too_few_servers_raises(self, uniform_ring):
        with pytest.raises(LookupError):
            place_original(uniform_ring, "obj", r=11)

    def test_r_must_be_positive(self, uniform_ring):
        with pytest.raises(ValueError):
            place_original(uniform_ring, "obj", r=0)


class TestPrimaryPlacementInvariants:
    """The §III-B contract, checked over many objects and both chain
    modes."""

    def test_exactly_one_primary_copy(self, chain):
        ring, layout = make_ring()
        for oid in range(500):
            res = place_primary(ring, oid, 2, layout.is_primary,
                                lambda s: True, chain=chain)
            primaries = sum(1 for s in res.servers if layout.is_primary(s))
            assert primaries == 1, f"oid {oid}: {res.servers}"

    def test_exactly_one_primary_copy_r3(self, chain):
        ring, layout = make_ring()
        for oid in range(300):
            res = place_primary(ring, oid, 3, layout.is_primary,
                                lambda s: True, chain=chain)
            assert sum(1 for s in res.servers
                       if layout.is_primary(s)) == 1

    def test_distinct_servers(self, chain):
        ring, layout = make_ring()
        for oid in range(300):
            res = place_primary(ring, oid, 3, layout.is_primary,
                                lambda s: True, chain=chain)
            assert len(set(res.servers)) == 3

    def test_inactive_servers_never_selected(self, chain):
        ring, layout = make_ring()
        active = lambda s: s <= 6
        for oid in range(300):
            res = place_primary(ring, oid, 2, layout.is_primary,
                                active, chain=chain)
            assert all(s <= 6 for s in res.servers)

    def test_deterministic(self, chain):
        ring, layout = make_ring()
        a = place_primary(ring, 42, 2, layout.is_primary,
                          lambda s: True, chain=chain)
        b = place_primary(ring, 42, 2, layout.is_primary,
                          lambda s: True, chain=chain)
        assert a.servers == b.servers

    def test_offload_flag_set_when_walking_past_inactive(self, chain):
        ring, layout = make_ring()
        # Find an object whose full-power placement uses rank 10, then
        # deactivate rank 10: its placement must flag the skip.
        for oid in range(2000):
            full = place_primary(ring, oid, 2, layout.is_primary,
                                 lambda s: True, chain=chain)
            if 10 in full.servers:
                res = place_primary(ring, oid, 2, layout.is_primary,
                                    lambda s: s != 10, chain=chain)
                assert res.skipped_inactive
                assert 10 not in res.servers
                return
        pytest.fail("no object mapped to rank 10")

    def test_r1_lands_on_primary(self, chain):
        ring, layout = make_ring()
        for oid in range(100):
            res = place_primary(ring, oid, 1, layout.is_primary,
                                lambda s: True, chain=chain)
            assert layout.is_primary(res.servers[0])

    def test_placement_changes_with_membership(self, chain):
        """Objects placed on inactive servers must move somewhere
        else; others stay (the offloading behaviour)."""
        ring, layout = make_ring()
        moved = stayed = 0
        for oid in range(500):
            full = place_primary(ring, oid, 2, layout.is_primary,
                                 lambda s: True, chain=chain)
            part = place_primary(ring, oid, 2, layout.is_primary,
                                 lambda s: s <= 8, chain=chain)
            if set(full.servers) & {9, 10}:
                assert set(part.servers) != set(full.servers)
                moved += 1
            elif full.servers == part.servers:
                stayed += 1
        assert moved > 0 and stayed > 0


class TestSpecialCase:
    """§III-B: primaries act as secondaries when too few active
    secondaries exist."""

    def test_all_secondaries_inactive(self, chain):
        ring, layout = make_ring()
        active = lambda s: layout.is_primary(s)  # only primaries on
        res = place_primary(ring, 7, 2, layout.is_primary, active,
                            chain=chain)
        assert res.degraded
        assert set(res.servers) == {1, 2}

    def test_one_active_secondary_r3(self, chain):
        ring, layout = make_ring()
        active = lambda s: layout.is_primary(s) or s == 3
        res = place_primary(ring, 7, 3, layout.is_primary, active,
                            chain=chain)
        assert res.degraded
        assert set(res.servers) == {1, 2, 3}

    def test_not_degraded_when_enough_secondaries(self, chain):
        ring, layout = make_ring()
        for oid in range(200):
            res = place_primary(ring, oid, 2, layout.is_primary,
                                lambda s: True, chain=chain)
            assert not res.degraded

    def test_too_few_active_raises(self, chain):
        ring, layout = make_ring()
        with pytest.raises(LookupError):
            place_primary(ring, 7, 3, layout.is_primary,
                          lambda s: s in (1, 2), chain=chain)

    def test_no_active_raises(self, chain):
        ring, layout = make_ring()
        with pytest.raises(LookupError):
            place_primary(ring, 7, 2, layout.is_primary,
                          lambda s: False, chain=chain)


class TestChainModes:
    def test_modes_may_differ_but_both_valid(self):
        ring, layout = make_ring()
        diffs = 0
        for oid in range(200):
            walk = place_primary(ring, oid, 2, layout.is_primary,
                                 lambda s: True, chain="walk")
            rehash = place_primary(ring, oid, 2, layout.is_primary,
                                   lambda s: True, chain="rehash")
            # First replica is chain-independent.
            assert walk.servers[0] == rehash.servers[0]
            if walk.servers != rehash.servers:
                diffs += 1
        # The two strategies genuinely differ on some objects.
        assert diffs > 0

    def test_figure4_style_second_replica(self):
        """Figure 4's rule: when the first replica lands on a primary,
        the second must land on a secondary, and vice versa the second
        must be the next primary."""
        ring, layout = make_ring()
        for oid in range(300):
            res = place_primary(ring, oid, 2, layout.is_primary,
                                lambda s: True)
            first, second = res.servers
            if layout.is_primary(first):
                assert not layout.is_primary(second)
            else:
                assert layout.is_primary(second)
