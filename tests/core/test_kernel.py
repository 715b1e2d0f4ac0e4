"""The slot-table placement kernel: table/bulk placement must be
indistinguishable from the reference ring walk, and a memo belongs to
one ring and one membership key — nothing ever needs dropping."""

import json

import numpy as np
import pytest

from repro.core.elastic import ElasticConsistentHash
from repro.core.kernel import PlacementKernel, SlotPlacementTable
from repro.core.placement import (
    place_original_from_slot,
    place_primary_from_slot,
)
from repro.experiments.three_phase import run_three_phase
from repro.hashring.ring import HashRing
from repro.obs.runtime import OBS


def reference(ech, oid, version):
    table = (ech.history.current if version is None
             else ech.history.get(version))
    try:
        return ech._locate_reference(oid, table)
    except LookupError:
        return None


def power_levels(ech):
    """Every legal active count, min upward."""
    return range(ech.min_active, ech.n + 1)


class TestExhaustiveEquivalence:
    """Acceptance criterion: table placement ≡ reference walk for every
    slot of rings at n ∈ {4, 10, 25}, all power levels, both chain
    modes — flags included."""

    @pytest.mark.parametrize("n", [4, 10, 25])
    @pytest.mark.parametrize("chain", ["walk", "rehash"])
    def test_every_slot_every_power_level(self, n, chain):
        ech = ElasticConsistentHash(n=n, replicas=2, B=60, chain=chain)
        # Visit every power level (descending then ascending so both
        # shrink- and grow-created versions are covered).
        for k in sorted(power_levels(ech), reverse=True):
            ech.set_active(k)
        for k in power_levels(ech):
            ech.set_active(k)
        for version in range(1, ech.current_version + 1):
            table = ech.history.get(version)
            tbl = ech._kernel.table(version, table.is_active)
            for slot in range(tbl.num_slots):
                try:
                    ref = place_primary_from_slot(
                        ech.ring, slot, ech.replicas,
                        ech.is_primary, table.is_active, chain)
                except LookupError:
                    ref = None
                if ref is None:
                    with pytest.raises(LookupError):
                        tbl.lookup(slot)
                else:
                    got = tbl.lookup(slot)
                    assert got.servers == ref.servers
                    assert got.degraded == ref.degraded
                    assert got.skipped_inactive == ref.skipped_inactive

    @pytest.mark.parametrize("n", [4, 10])
    def test_every_slot_original_mode(self, n):
        ech = ElasticConsistentHash(n=n, replicas=2, B=60,
                                    placement_mode="original")
        for k in power_levels(ech):
            ech.set_active(k)
        for version in range(1, ech.current_version + 1):
            table = ech.history.get(version)
            tbl = ech._kernel.table(version, table.is_active)
            for slot in range(tbl.num_slots):
                try:
                    ref = place_original_from_slot(
                        ech.ring, slot, ech.replicas, table.is_active)
                except LookupError:
                    ref = None
                if ref is None:
                    with pytest.raises(LookupError):
                        tbl.lookup(slot)
                else:
                    got = tbl.lookup(slot)
                    assert (got.servers, got.degraded,
                            got.skipped_inactive) == \
                        (ref.servers, ref.degraded, ref.skipped_inactive)


class TestLocateEquivalence:
    """Property: kernel-served locate / locate_bulk match the reference
    walk across seeds, cluster sizes, power states and chain modes."""

    CASES = [
        (4, "walk", "primary"),
        (10, "rehash", "primary"),
        (25, "walk", "primary"),
        (10, "walk", "original"),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n,chain,mode", CASES)
    def test_scalar_and_bulk_match_reference(self, seed, n, chain, mode):
        """Scalar first: the lookups build the table and their result
        objects, the bulk call that follows gathers the same rows."""
        self._check(seed, n, chain, mode, bulk_first=False)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n,chain,mode", CASES)
    def test_bulk_first_matches_reference(self, seed, n, chain, mode):
        """Bulk first: the gather builds the table, the scalar lookups
        that follow materialise results from its rows."""
        self._check(seed, n, chain, mode, bulk_first=True)

    def _check(self, seed, n, chain, mode, bulk_first):
        rng = np.random.default_rng(seed)
        ech = ElasticConsistentHash(n=n, replicas=3, B=200, chain=chain,
                                    placement_mode=mode)
        for k in rng.choice(list(power_levels(ech)), size=4,
                            replace=True):
            ech.set_active(int(k))
        oids = [int(x) for x in rng.integers(0, 10**9, size=400)]

        def check_scalar(version, refs):
            for oid, ref in zip(oids, refs):
                if ref is None:
                    with pytest.raises(LookupError):
                        ech.locate(oid, version)
                else:
                    assert ech.locate(oid, version) == ref

        def check_bulk(version, refs):
            bulk = ech.locate_bulk(oids, version)
            assert len(bulk) == len(oids)
            for i, ref in enumerate(refs):
                if ref is None:
                    assert not bulk.ok[i]
                else:
                    assert bulk.ok[i]
                    assert tuple(bulk.servers[i].tolist()) == ref.servers
                    assert bool(bulk.degraded[i]) == ref.degraded
                    assert bool(bulk.skipped_inactive[i]) == \
                        ref.skipped_inactive
                    assert bulk.result(i) == ref

        checks = [check_scalar, check_bulk]
        if bulk_first:
            checks.reverse()
        for version in [None] + list(range(1, ech.current_version + 1)):
            refs = [reference(ech, oid, version) for oid in oids]
            # Every version starts cold (a fresh ring and kernel for the
            # same layout), so the first check is the one that builds
            # the table.
            ech._use_layout(ech.layout)
            for check in checks:
                check(version, refs)

    def test_bulk_positions_match_bulk(self):
        from repro.hashring.hashing import bulk_hash
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        ech.set_active(6)
        oids = range(5_000, 5_400)
        a = ech.locate_bulk(oids)
        b = ech.locate_bulk_positions(bulk_hash(oids))
        assert np.array_equal(a.servers, b.servers)
        assert np.array_equal(a.degraded, b.degraded)

    def test_empty_bulk(self):
        ech = ElasticConsistentHash(n=4, replicas=2, B=60)
        bulk = ech.locate_bulk([])
        assert len(bulk) == 0 and bulk.all_ok


class TestInvalidation:
    def test_set_active_creates_new_table_keeps_old(self):
        ech = ElasticConsistentHash(n=6, replicas=2, B=100)
        before = ech.locate(42)
        assert ech._kernel.cached_tables == (1,)
        ech.set_active(4)
        after = ech.locate(42)
        # Version 1's table survives (history is append-only) ...
        assert ech.locate(42, version=1) == before
        assert set(ech._kernel.cached_tables) == {1, 2}
        # ... and the new version re-placed against its own membership.
        assert after == reference(ech, 42, None)

    def test_relayout_is_a_new_ring_and_kernel(self):
        """New weights are a new ring, and a new ring is a new kernel:
        the old one is left as it was, never edited."""
        from repro.core.dynamic_primaries import apply_relayout
        ech = ElasticConsistentHash(n=6, replicas=2, B=100)
        ech.locate(42)
        ech.locate(43)
        ring, kernel = ech.ring, ech._kernel
        num_vnodes = ring.num_vnodes
        apply_relayout(ech, ech.p + 1)
        assert ech.ring is not ring and ech._kernel is not kernel
        assert ring.num_vnodes == num_vnodes != ech.ring.num_vnodes
        assert kernel.cached_tables == (1,)
        assert ech._kernel.cached_tables == ()
        assert ech.locate(42) == reference(ech, 42, None)

    def test_relayout_invalidates_uniform_mode(self):
        # Uniform layout: weights do not change with p, so only the
        # explicit hook in apply_relayout protects the memo.
        from repro.core.dynamic_primaries import apply_relayout
        ech = ElasticConsistentHash(n=8, replicas=2, B=100,
                                    layout_mode="uniform")
        ech.locate(42)
        apply_relayout(ech, ech.p + 2)
        assert ech.locate(42) == reference(ech, 42, None)

    def test_table_lru_caps_versions(self):
        ech = ElasticConsistentHash(n=6, replicas=2, B=60)
        ech._kernel._max_tables = 3
        versions = [ech.current_version]
        for k in (4, 3, 5, 4, 6, 3):
            ech.set_active(k)
            versions.append(ech.current_version)
        for v in versions:
            ech.locate(7, version=v)
        assert len(ech._kernel.cached_tables) == 3
        # Evicted versions still resolve (table rebuilt on demand).
        assert ech.locate(7, version=versions[0]) == \
            reference(ech, 7, versions[0])


class TestKernelInternals:
    def test_table_is_whole_at_construction(self):
        """Every row is there before the first lookup, and traffic
        changes none of them."""
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        tbl = ech._kernel.table(1, ech.history.current.is_active)
        servers, flags = tbl._servers.copy(), tbl._flags.copy()
        assert servers.shape == (tbl.num_slots, 2)
        assert (servers >= 0).all()
        ech.locate(42)
        ech.locate_bulk(range(100))
        assert ech._kernel.table(1, ech.history.current.is_active) is tbl
        assert np.array_equal(tbl._servers, servers)
        assert np.array_equal(tbl._flags, flags)

    def test_one_table_construction_per_version_touched(self, monkeypatch):
        built = []
        init = SlotPlacementTable.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SlotPlacementTable, "__init__", counted)
        ech = ElasticConsistentHash(n=10, replicas=2, B=200)
        for k in (6, 8, 4):
            ech.set_active(k)           # versions 2, 3, 4
        assert built == []              # a resize alone builds nothing
        for version in (1, 3, 3, 1, None, 3):
            ech.locate(7, version)
            ech.locate_bulk(range(300), version)
            for oid in range(50):
                ech.locate(oid, version)
        assert len(built) == 3          # versions 1, 3 and 4 — never 2
        assert set(ech._kernel.cached_tables) == {1, 3, 4}

    def test_evicted_version_rebuilds_identical_rows(self):
        ech = ElasticConsistentHash(n=10, replicas=3, B=200)
        ech._kernel._max_tables = 2
        for k in (6, 8):
            ech.set_active(k)
        first = ech._kernel.table(1, ech.history.get(1).is_active)
        results = [first.lookup(slot) for slot in range(first.num_slots)]
        for version in (2, 3):
            ech.locate(7, version)
        assert 1 not in ech._kernel.cached_tables
        again = ech._kernel.table(1, ech.history.get(1).is_active)
        assert again is not first
        assert np.array_equal(again._servers, first._servers)
        assert np.array_equal(again._flags, first._flags)
        assert [again.lookup(slot)
                for slot in range(again.num_slots)] == results

    def test_requires_primary_oracle(self):
        ring = HashRing({1: 10})
        with pytest.raises(ValueError):
            PlacementKernel(ring, 2, placement_mode="primary")
        with pytest.raises(ValueError):
            PlacementKernel(ring, 2, placement_mode="nope")


class TestTraceIdentity:
    """Acceptance criterion: same-seed experiment traces are
    byte-identical with the kernel enabled (vs. the reference path)."""

    def _trace(self):
        OBS.reset()
        with OBS.bus.capture(capacity=100_000) as sink:
            run_three_phase(
                mode="selective", scale=0.01, n=10, probe_objects=200,
                max_duration=400.0)
            events = sink.events()
        OBS.reset()
        return json.dumps(events, sort_keys=True, default=str)

    def test_three_phase_trace_identical(self):
        assert self._trace() == self._trace()

    def test_cluster_scenario_identical_with_and_without_kernel(
            self, monkeypatch):
        def run(enabled):
            OBS.reset()
            from repro.cluster.cluster import ElasticCluster
            with OBS.bus.capture(capacity=100_000) as sink:
                cl = ElasticCluster(n=10, replicas=2, B=200)
                if not enabled:
                    # Every scalar locate down the per-object ring
                    # walk (the bulk API always uses the kernel).
                    ech = cl.ech
                    monkeypatch.setattr(
                        ech, "locate",
                        lambda oid, version=None: ech._locate_reference(
                            oid, ech.history.current if version is None
                            else ech.history.get(version)))
                for oid in range(400):
                    cl.write(oid)
                cl.resize(6)
                for oid in range(400, 800):
                    cl.write(oid)
                cl.resize(10)
                cl.run_selective_reintegration()
                state = (cl.bytes_per_rank(), cl.replicas_per_rank(),
                         sorted(cl.ech.last_written.items()))
                events = sink.events()
            OBS.reset()
            return state, json.dumps(events, sort_keys=True, default=str)

        s_on, t_on = run(True)
        s_off, t_off = run(False)
        assert s_on == s_off
        assert t_on == t_off


def assert_cached_versions_match_reference(ech, oids):
    """Every memoized version still places *oids* exactly as the
    reference walk does under that version."""
    assert ech._kernel.cached_tables
    for version in ech._kernel.cached_tables:
        refs = [reference(ech, oid, version) for oid in oids]
        bulk = ech.locate_bulk(oids, version)
        for i, (oid, ref) in enumerate(zip(oids, refs)):
            assert ech.locate(oid, version) == ref
            assert bulk.result(i) == ref


class TestFaultInvalidation:
    """Fault-driven membership changes (crash, repair) drop nothing: a
    crash is a new version, and a new version is a new key.  Every
    table kept across one must still be its version's placement, and
    no table may serve a failed rank to a later version."""

    def _warm(self):
        ech = ElasticConsistentHash(n=8, replicas=2, B=100)
        ech.set_active(6)
        ech.set_active(8)
        for version in (1, 2, 3):
            ech.locate_bulk(range(200), version)
        return ech

    def test_mark_failed_keeps_every_table_correct(self):
        ech = self._warm()
        kept = ech._kernel.cached_tables
        ech.mark_failed(5)
        ech.locate_bulk(range(200))                 # the crash version
        assert set(kept) < set(ech._kernel.cached_tables)
        assert_cached_versions_match_reference(ech, range(200))

    def test_mark_repaired_keeps_every_table_correct(self):
        ech = self._warm()
        ech.mark_failed(5)
        ech.locate_bulk(range(200))
        kept = ech._kernel.cached_tables
        ech.mark_repaired(5)
        assert ech._kernel.cached_tables == kept
        ech.set_active(8)                           # 5 is back in
        ech.locate_bulk(range(200))
        assert_cached_versions_match_reference(ech, range(200))

    def test_stale_table_never_served_after_crash(self):
        """The warm pre-crash cache must not leak the failed rank into
        any post-crash placement."""
        ech = ElasticConsistentHash(n=8, replicas=2, B=100)
        oids = range(500)
        warm = ech.locate_bulk(oids)
        victim = 3
        assert (warm.servers == victim).any()   # cache knew the rank
        ech.mark_failed(victim)
        got = ech.locate_bulk(oids)
        assert not (got.servers[got.ok] == victim).any()
        for oid in range(0, 500, 50):           # scalar path agrees
            assert ech.locate(oid) == reference(ech, oid, None)

    def test_repaired_rank_stays_out_until_resize(self):
        ech = ElasticConsistentHash(n=8, replicas=2, B=100)
        ech.mark_failed(5)
        ech.locate_bulk(range(100))
        ech.mark_repaired(5)
        got = ech.locate_bulk(range(100))
        # Repair returns the rank to the chain powered-off: placements
        # keep excluding it until set_active brings it back.
        assert not (got.servers[got.ok] == 5).any()
        ech.set_active(8)
        back = ech.locate_bulk(range(500))
        assert (back.servers[back.ok] == 5).any()
