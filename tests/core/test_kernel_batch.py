"""The batched slot fill: ``SlotPlacementTable.fill`` must settle a
batch of cold slots exactly as one reference walk per slot would —
servers, ``degraded``, ``skipped_inactive`` and the ``LookupError``
message — and must never take the walk itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel_mod
from repro.core.elastic import ElasticConsistentHash
from repro.core.kernel import PlacementKernel
from repro.core.placement import (
    place_original_from_slot,
    place_primary_from_slot,
)
from repro.hashring.ring import HashRing


def walk(ech, table, slot):
    """What the reference walk says about *slot*: a result or the
    ``LookupError`` message."""
    try:
        if ech.placement_mode == "original":
            return place_original_from_slot(
                ech.ring, slot, ech.replicas, table.is_active)
        return place_primary_from_slot(
            ech.ring, slot, ech.replicas, ech.is_primary,
            table.is_active, ech.chain)
    except LookupError as exc:
        return str(exc)


def assert_slots_match_walk(ech, table, tbl, slots):
    """Every one of *slots*, read both ways out of *tbl*, equals the
    reference walk."""
    slots = np.asarray(slots, dtype=np.intp)
    bulk = tbl.gather(slots)
    for i, slot in enumerate(slots.tolist()):
        ref = walk(ech, table, slot)
        if isinstance(ref, str):
            assert not bulk.ok[i]
            assert set(bulk.servers[i].tolist()) == {-1}
            with pytest.raises(LookupError) as bulk_err:
                bulk.result(i)
            with pytest.raises(LookupError) as scalar_err:
                tbl.lookup(slot)
            assert str(bulk_err.value) == str(scalar_err.value) == ref
        else:
            assert bulk.ok[i]
            assert bulk.result(i) == ref
            assert tbl.lookup(slot) == ref


def cold_table(ech, version=None):
    table = (ech.history.current if version is None
             else ech.history.get(version))
    ech.invalidate_placement_cache()
    return table, ech._kernel.table(table.version, table.is_active)


@st.composite
def clusters(draw):
    """A cluster in an arbitrary membership: any non-empty active set
    (not only expansion-chain prefixes), with crashed ranks."""
    n = draw(st.integers(min_value=2, max_value=12))
    r = draw(st.integers(min_value=1, max_value=4))
    ech = ElasticConsistentHash(
        n=n, replicas=r,
        B=draw(st.sampled_from([20, 60, 150])),
        p=draw(st.integers(min_value=1, max_value=n)),
        chain=draw(st.sampled_from(["walk", "rehash"])),
        placement_mode=draw(st.sampled_from(["primary", "original"])),
        layout_mode=draw(st.sampled_from(["equal-work", "uniform"])))
    ranks = list(ech.layout.ranks)
    for rank in draw(st.lists(st.sampled_from(ranks), unique=True,
                              max_size=n - 1)):
        ech.mark_failed(rank)
    active = draw(st.lists(st.sampled_from(ranks), unique=True,
                           min_size=1))
    if set(active) != set(ech.history.current.active):
        ech.history.advance(sorted(active))
    return ech


class TestBatchedFillProperty:
    @given(ech=clusters(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_cold_bulk_fill_equals_walk(self, ech, data):
        """Bulk-fill a cold table with a random slot subset, interleave
        scalar lookups and further bulk fills, then compare *every*
        slot with the walk."""
        table, tbl = cold_table(ech)
        assert tbl.filled_slots == 0
        slot = st.integers(min_value=0, max_value=tbl.num_slots - 1)
        for step in data.draw(st.lists(
                st.one_of(slot, st.lists(slot, min_size=1, max_size=40)),
                min_size=1, max_size=6)):
            if isinstance(step, int):
                ref = walk(ech, table, step)
                if isinstance(ref, str):
                    with pytest.raises(LookupError) as err:
                        tbl.lookup(step)
                    assert str(err.value) == ref
                else:
                    assert tbl.lookup(step) == ref
            else:
                assert_slots_match_walk(ech, table, tbl, step)
        assert_slots_match_walk(ech, table, tbl, range(tbl.num_slots))
        assert tbl.filled_slots == tbl.num_slots


def _every_power_level(ech):
    levels = range(ech.min_active, ech.n + 1)
    for k in sorted(levels, reverse=True):
        ech.set_active(k)
    for k in levels:
        ech.set_active(k)


class TestEverySlotBatched:
    """The configurations of ``TestExhaustiveEquivalence`` (and the
    corners it leaves out), every slot settled by one cold bulk fill
    per version."""

    @pytest.mark.parametrize("kwargs", [
        dict(n=4, replicas=2, chain="walk"),
        dict(n=4, replicas=2, chain="rehash"),
        dict(n=10, replicas=2, chain="walk"),
        dict(n=10, replicas=2, chain="rehash"),
        dict(n=25, replicas=2, chain="walk"),
        dict(n=25, replicas=2, chain="rehash"),
        dict(n=4, replicas=2, placement_mode="original"),
        dict(n=10, replicas=2, placement_mode="original"),
        dict(n=10, replicas=1),
        dict(n=10, replicas=1, placement_mode="original"),
        dict(n=10, replicas=3, chain="walk"),
        dict(n=10, replicas=3, chain="rehash"),
        dict(n=10, replicas=4, p=1),
        dict(n=10, replicas=3, layout_mode="uniform"),
        dict(n=10, replicas=3, p=10),          # no secondaries at all
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_every_slot_every_power_level(self, kwargs):
        ech = ElasticConsistentHash(B=60, **kwargs)
        _every_power_level(ech)
        for version in range(1, ech.current_version + 1):
            table, tbl = cold_table(ech, version)
            assert_slots_match_walk(ech, table, tbl,
                                    range(tbl.num_slots))

    def test_minimum_power_all_degraded(self):
        """k = p: no active secondary, so every role-constrained search
        after the first replica fails — all rows degraded."""
        ech = ElasticConsistentHash(n=30, replicas=3, B=60)
        assert ech.min_active >= ech.replicas
        ech.set_active(ech.min_active)
        table, tbl = cold_table(ech)
        bulk = tbl.gather(np.arange(tbl.num_slots))
        assert bulk.all_ok and bulk.degraded.all()
        assert_slots_match_walk(ech, table, tbl, range(tbl.num_slots))

    def test_replicas_exceed_active_servers_all_error(self):
        ech = ElasticConsistentHash(n=6, replicas=3, B=60, p=1)
        ech.history.advance([1, 4])
        table, tbl = cold_table(ech)
        bulk = tbl.gather(np.arange(tbl.num_slots))
        assert not bulk.ok.any()
        assert set(bulk.reasons.values()) == \
            {"only 2 of 3 replicas placeable"}
        assert_slots_match_walk(ech, table, tbl, range(tbl.num_slots))

    def test_crashed_rank(self):
        ech = ElasticConsistentHash(n=10, replicas=3, B=60)
        ech.mark_failed(1)              # a primary
        ech.mark_failed(6)
        ech.set_active(7)
        for version in range(1, ech.current_version + 1):
            table, tbl = cold_table(ech, version)
            assert_slots_match_walk(ech, table, tbl,
                                    range(tbl.num_slots))


class TestUnplaceableRows:
    """Rows that cannot be placed name no server, whatever the id
    type, and fail with the scalar path's reason."""

    def test_string_ids_get_none_not_a_real_server(self):
        ring = HashRing()
        for sid in "abc":
            ring.add_server(sid, weight=20)
        kernel = PlacementKernel(ring, 3, is_primary=lambda s: s == "a")
        tbl = kernel.table(1, lambda s: s != "c")
        bulk = tbl.gather(np.arange(tbl.num_slots))
        assert not bulk.ok.any()
        assert bulk.rows() == [[None] * 3] * tbl.num_slots
        with pytest.raises(LookupError,
                           match="only 2 of 3 replicas placeable"):
            bulk.result(0)
        ok = kernel.table(2, lambda s: True).gather(np.arange(5))
        assert ok.all_ok and set(np.ravel(ok.rows())) <= set("abc")

    def test_result_raises_scalar_reason(self):
        ech = ElasticConsistentHash(n=4, replicas=2, B=60, p=1)
        ech.history.advance([3])
        oids = list(range(50))
        bulk = ech.locate_bulk(oids)
        assert not bulk.ok.any()
        assert (bulk.servers == -1).all()
        for i, oid in enumerate(oids):
            with pytest.raises(LookupError) as scalar_err:
                ech.locate(oid)
            with pytest.raises(LookupError) as bulk_err:
                bulk.result(i)
            assert str(scalar_err.value) == \
                f"{bulk_err.value} (oid {oid!r})"


@pytest.fixture
def walks(monkeypatch):
    """Counts the reference walks the kernel takes."""
    calls = []
    for name in ("place_primary_from_slot", "place_original_from_slot"):
        fn = getattr(kernel_mod, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, name, counted)
    return calls


class TestWalkCounts:
    """The call shape selects the fill: a bulk call never walks, a
    scalar miss walks once."""

    @pytest.mark.parametrize("mode", ["primary", "original"])
    def test_bulk_never_walks_scalar_miss_walks_once(self, walks, mode):
        ech = ElasticConsistentHash(n=10, replicas=2, B=200,
                                    placement_mode=mode)
        ech.set_active(6)
        ech.locate_bulk(range(2_000))
        ech.locate_bulk([5])                  # a one-key batch too
        assert walks == []
        for oid in range(100):                # bulk-filled: table hits
            ech.locate(oid)
        assert walks == []
        ech.set_active(8)                     # cold table
        ech.locate(42)
        assert walks == [f"place_{mode}_from_slot"]
        ech.locate(42)
        assert len(walks) == 1

    def test_cold_sweep_at_minimum_power_takes_no_walk(self, walks):
        ech = ElasticConsistentHash(n=100, replicas=3)
        ech.set_active(ech.p)
        bulk = ech.locate_bulk(range(20_000))
        assert walks == []
        assert bulk.all_ok and bulk.degraded.all()
