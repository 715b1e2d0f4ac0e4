"""The whole-table array pass: a :class:`SlotPlacementTable` must hold,
for every slot, exactly what one reference walk of that slot says —
servers, ``degraded``, ``skipped_inactive`` and the ``LookupError``
message — and the product must never take the walk itself."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.placement as placement_mod
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
        """Read a cold table through a random interleaving of scalar
        lookups and bulk gathers, then compare *every* slot with the
        walk."""
        table, tbl = cold_table(ech)
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


def _every_power_level(ech):
    levels = range(ech.min_active, ech.n + 1)
    for k in sorted(levels, reverse=True):
        ech.set_active(k)
    for k in levels:
        ech.set_active(k)


class TestEverySlotBatched:
    """The configurations of ``TestExhaustiveEquivalence`` (and the
    corners it leaves out), every slot of a freshly built table per
    version."""

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
    """Counts the reference walks the product takes: every ``repro.*``
    module attribute bound to ``place_*_from_slot`` is counted, however
    the module imported it."""
    calls = []
    for name in ("place_primary_from_slot", "place_original_from_slot"):
        fn = getattr(placement_mod, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestWalkCounts:
    """The reference walks are the oracle, never a product path:
    whatever the traffic, the kernel answers from its array pass."""

    def test_fixture_counts_the_oracle(self, walks):
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        ech._locate_reference(42, ech.history.current)
        assert walks == ["place_primary_from_slot"]

    @pytest.mark.parametrize("mode", ["primary", "original"])
    def test_product_never_takes_reference_walk(self, walks, mode):
        ech = ElasticConsistentHash(n=10, replicas=2, B=200,
                                    placement_mode=mode)
        for oid in range(300):                # scalar only, cold table
            ech.locate(oid)
        ech.set_active(6)                     # bulk only, cold table
        ech.locate_bulk(range(2_000))
        ech.locate_bulk([5])                  # a one-key batch too
        ech.set_active(8)                     # interleaved, cold table
        for oid in range(0, 400, 40):
            ech.locate(oid)
            ech.locate_bulk(range(oid, oid + 40))
            ech.locate(oid + 1, version=1)
            ech.record_write(oid)
        ech.mark_failed(7)                    # every table dropped
        ech.locate(42)
        ech.locate_bulk(range(100), version=2)
        assert walks == []

    def test_cold_sweep_at_minimum_power_takes_no_walk(self, walks):
        ech = ElasticConsistentHash(n=100, replicas=3)
        ech.set_active(ech.p)
        bulk = ech.locate_bulk(range(20_000))
        assert walks == []
        assert bulk.all_ok and bulk.degraded.all()


class TestUnplaceableTable:
    """r > active: nothing is placeable, and the table says so once."""

    @staticmethod
    def _build(B):
        ech = ElasticConsistentHash(n=6, replicas=3, B=B, p=1)
        ech.history.advance([1, 4])
        asked = []
        table = ech.history.current

        def is_active(rank):
            asked.append(rank)
            return table.is_active(rank)

        ech.invalidate_placement_cache()
        return ech, ech._kernel.table(table.version, is_active), asked

    def test_build_does_no_per_slot_python_work(self):
        """The membership predicate runs once per server and the
        message exists once, however many slots the ring has."""
        for B in (60, 6_000):
            ech, tbl, asked = self._build(B)
            assert tbl.num_slots >= B
            assert sorted(asked) == list(ech.layout.ranks)
            assert tbl._error == "only 2 of 3 replicas placeable"
            assert set(tbl._results) == {None}

    def test_reasons_and_result_text(self):
        ech, tbl, _ = self._build(60)
        slots = np.array([0, 5, 5, tbl.num_slots - 1])
        bulk = tbl.gather(slots)
        assert not bulk.ok.any() and (bulk.servers == -1).all()
        assert not bulk.degraded.any() and not bulk.skipped_inactive.any()
        assert dict(bulk.reasons) == dict.fromkeys(
            range(4), "only 2 of 3 replicas placeable")
        for i, slot in enumerate(slots.tolist()):
            with pytest.raises(LookupError) as bulk_err:
                bulk.result(i)
            with pytest.raises(LookupError) as scalar_err:
                tbl.lookup(slot)
            assert str(bulk_err.value) == str(scalar_err.value) \
                == "only 2 of 3 replicas placeable"
        with pytest.raises(LookupError, match=r"only 2 of 3 replicas "
                                              r"placeable \(oid 9\)"):
            ech.locate(9)
