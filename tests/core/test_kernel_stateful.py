"""Generated equivalence test for the placement kernel.

The kernel answers ``locate`` / ``locate_bulk`` from slot tables, one
per active set (versions with equal sets share one) kept in a small
LRU, an oid→slot cache, and a bisect over the ring's positions;
``ElasticConsistentHash._locate_reference`` walks the ring per object.
Hypothesis drives arbitrary interleavings of resizes, crashes, repairs,
re-layouts and lookups against *any* past version —
with the LRU small enough that tables are evicted and rebuilt — and
every answer (servers, flags, ``LookupError`` text) must be the
reference's.

The reference shares ``HashRing.successor_slot`` with the kernel, so
the scalar successor is also held to the array ``searchsorted`` at the
positions where the two could differ: on a vnode, one either side of
it, and at both ends of the circle.  ``prehash`` fills the oid→slot
memo ahead of any lookup, in one array pass; after every step, each
memo entry must be the scalar successor of its oid's position.

Nothing in the kernel is ever invalidated: a kernel belongs to one ring
and one role assignment, so a re-layout is a new ring and a new kernel,
and a table belongs to one membership key: the facade's keys are
active sets, and every version whose set is cached is checked.
``OriginalKernelMachine`` holds the original-CH baseline, whose tables
are keyed by member set, to a ring built from the members alone.

``TestSeededMutants`` shows the machines are not vacuous: they fail on
a re-layout that swaps the layout but keeps the old ring and kernel, on
an original-CH cluster that keys every table by ``None``, on a facade
that keys its tables by active-server count, on ``bisect_right``, on a
successor that does not wrap at slot == V, and on a ``prehash`` that
pairs each oid with its neighbour's slot.
"""

import bisect
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.core.dynamic_primaries as dynamic_primaries
import repro.hashring.ring as ring_mod
from repro.cluster.cluster import OriginalCHCluster
from repro.core.elastic import ElasticConsistentHash
from repro.core.kernel import PlacementKernel
from repro.core.placement import place_original
from repro.hashring.ring import HashRing
from tests.core.test_kernel_batch import walk

TOP = 2 ** 64 - 1
OIDS = st.integers(min_value=0, max_value=5_000)
PROBES = tuple(range(0, 120, 10))


#: What ``prehash`` takes: a ``range`` or an integer array of oids
#: (overlapping ``OIDS``, so prehashed entries are then located).
PREHASHED = st.one_of(
    st.builds(lambda start, size: range(start, start + size),
              st.integers(0, 5_000), st.integers(0, 80)),
    st.lists(OIDS, max_size=40).map(lambda xs: np.array(xs, dtype=np.int64)))


def assert_slot_memo_exact(kernel):
    """Every oid→slot memo entry, however it got there (``slot_of`` or
    ``prehash``), is the scalar successor of the oid's position."""
    ring = kernel._ring
    for oid, slot in kernel._slot_cache.items():
        assert type(slot) is int, (oid, slot)
        assert slot == ring.successor_slot(ring.key_position(oid)), oid


def outcome(fn, *args):
    """A placement, or the text of the ``LookupError`` it raised."""
    try:
        return fn(*args)
    except LookupError as exc:
        return str(exc)


class KernelMachine(RuleBasedStateMachine):
    ECH = ElasticConsistentHash

    @initialize(
        n=st.integers(min_value=2, max_value=12),
        replicas=st.integers(min_value=1, max_value=3),
        B=st.sampled_from([20, 60, 150]),
        chain=st.sampled_from(["walk", "rehash"]),
        placement_mode=st.sampled_from(["primary", "original"]),
        layout_mode=st.sampled_from(["equal-work", "uniform"]),
        max_tables=st.integers(min_value=2, max_value=3))
    def build(self, n, replicas, B, chain, placement_mode, layout_mode,
              max_tables):
        self.ech = self.ECH(
            n=n, replicas=replicas, B=B, chain=chain,
            placement_mode=placement_mode, layout_mode=layout_mode)
        self.ech._kernel._max_tables = max_tables

    # -- what the kernel is compared with ------------------------------
    def reference(self, oid, version):
        ech = self.ech
        return outcome(ech._locate_reference, oid, ech.history.get(version))

    def check_scalar(self, oid, version):
        assert outcome(self.ech.locate, oid, version) \
            == self.reference(oid, version), (oid, version)

    def check_bulk(self, oids, version):
        bulk = self.ech.locate_bulk(oids, version)
        assert len(bulk) == len(oids)
        for i, oid in enumerate(oids):
            got = outcome(bulk.result, i)
            if isinstance(got, str):
                assert not bulk.ok[i]
                got = f"{got} (oid {oid!r})"
            assert got == self.reference(oid, version), (oid, version)

    def versions(self):
        return st.integers(min_value=1, max_value=self.ech.current_version)

    def vnode_positions(self):
        return self.ech.ring._position_ints

    # -- membership ----------------------------------------------------
    @rule(k=st.integers(min_value=1, max_value=12))
    def set_active(self, k):
        self.ech.set_active(k)

    @rule(data=st.data())
    def mark_failed(self, data):
        ech = self.ech
        rank = data.draw(st.sampled_from(ech.layout.ranks))
        if rank in ech.failed or ech.history.current.active <= {rank}:
            return
        ech.mark_failed(rank)

    @precondition(lambda self: self.ech.failed)
    @rule(data=st.data())
    def mark_repaired(self, data):
        self.ech.mark_repaired(
            data.draw(st.sampled_from(sorted(self.ech.failed))))

    @precondition(lambda self: not self.ech.failed)
    @rule(data=st.data())
    def relayout(self, data):
        """New primary count: new roles (and, under the equal-work
        layout, new weights), so a new ring and a new kernel."""
        ech = self.ech
        ech.set_active(ech.n)
        new_p = data.draw(st.integers(min_value=1, max_value=ech.n))
        if new_p != ech.p:
            dynamic_primaries.apply_relayout(ech, new_p)

    # -- lookups -------------------------------------------------------
    @rule(oids=PREHASHED)
    def prehash(self, oids):
        self.ech.prehash(oids)

    @rule(data=st.data(), oid=OIDS)
    def locate(self, data, oid):
        self.check_scalar(oid, data.draw(self.versions()))

    @rule(data=st.data(), oids=st.lists(OIDS, max_size=30))
    def locate_bulk(self, data, oids):
        self.check_bulk(oids, data.draw(self.versions()))

    @rule(data=st.data(), oid=OIDS,
          np_int=st.sampled_from([np.int64, np.int32, np.uint64]))
    def locate_numpy_oid(self, data, oid, np_int):
        """A NumPy integer is the oid it equals — before and after the
        plain int has been through the oid→slot cache."""
        version = data.draw(self.versions())
        want = self.reference(oid, version)
        got = outcome(self.ech.locate, np_int(oid), version)
        if isinstance(got, str):
            got = got.replace(repr(np_int(oid)), repr(oid))
        assert got == want, (oid, version)
        self.check_scalar(oid, version)

    @rule(data=st.data())
    def locate_past_the_last_vnode(self, data):
        """The first oid hashing beyond every vnode: its successor is
        slot 0, through the wrap."""
        last = self.vnode_positions()[-1]
        oid = next(o for o in range(100_000)
                   if self.ech.ring.key_position(o) > last)
        version = data.draw(self.versions())
        self.check_scalar(oid, version)
        self.check_bulk([oid], version)

    @rule(data=st.data())
    def locate_on_and_beside_a_vnode(self, data):
        """Positions no hashed oid will ever hit: the scalar successor
        must pick the slot ``searchsorted`` picks."""
        ech = self.ech
        at = data.draw(st.sampled_from(self.vnode_positions()))
        positions = sorted({0, TOP, at, max(at - 1, 0), min(at + 1, TOP)})
        version = data.draw(self.versions())
        bulk = ech.locate_bulk_positions(
            np.array(positions, dtype=np.uint64), version)
        for i, position in enumerate(positions):
            assert outcome(bulk.result, i) == walk(
                ech, ech.history.get(version),
                ech.ring.successor_slot(position)), position

    # ------------------------------------------------------------------
    @invariant()
    def ring_is_the_layouts(self):
        ech = self.ech
        assert ech.ring.servers == tuple(ech.layout.ranks)
        assert all(ech.ring.weight_of(rank) == ech.layout.weight_of(rank)
                   for rank in ech.layout.ranks)

    @invariant()
    def slot_memo_is_the_scalar_successor(self):
        assert_slot_memo_exact(self.ech._kernel)

    @invariant()
    def cached_and_current_versions_equal_reference(self):
        ech = self.ech
        cached = set(ech._kernel.cached_tables)
        for version in [*(t.version for t in ech.history
                          if t.active in cached), ech.current_version]:
            for oid in PROBES[:4]:
                self.check_scalar(oid, version)
            self.check_bulk(list(PROBES), version)
        assert len(ech._kernel.cached_tables) <= ech._kernel._max_tables


TestKernelMachine = KernelMachine.TestCase
TestKernelMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)


def members_alone(cluster):
    """A ring built from *cluster*'s members alone — the ring the
    baseline's servers leave, rebuilt without the product's help."""
    return HashRing(dict.fromkeys(cluster.members, cluster.vnodes_per_server))


def first_mismatch(oids, got, want):
    """The first ``(oid, got, want)`` where *got* and *want* differ, or
    None.  Asserting on it keeps a failure's report one line long:
    pytest's full diff of two long placement lists (``-v``, or ``CI``
    set) runs ``difflib.ndiff``, which takes minutes on a few hundred
    similar lines."""
    assert len(got) == len(want), (len(got), len(want))
    return next(((oid, g, w) for oid, g, w in zip(oids, got, want)
                 if g != w), None)


def assert_places_like_members_alone(cluster, oids):
    ring = members_alone(cluster)
    oids = list(oids)
    want = [place_original(ring, oid, cluster.replicas).servers
            for oid in oids]
    assert first_mismatch(
        oids, [cluster.placement(oid).servers for oid in oids], want) is None
    assert first_mismatch(
        oids, [tuple(row) for row in cluster.placement_bulk(oids).rows()],
        want) is None


class OriginalKernelMachine(RuleBasedStateMachine):
    """The original-CH baseline: one ring over every server, one slot
    table per member set.  After any departures, additions and plans,
    scalar and bulk placement equal the walk of a ring built from the
    members alone."""

    CLUSTER = OriginalCHCluster

    @initialize(n=st.integers(min_value=2, max_value=8),
                replicas=st.integers(min_value=1, max_value=3),
                vnodes=st.sampled_from([5, 20, 60]),
                max_tables=st.integers(min_value=2, max_value=3))
    def build(self, n, replicas, vnodes, max_tables):
        self.cluster = self.CLUSTER(n=n, replicas=min(replicas, n),
                                    vnodes_per_server=vnodes)
        self.cluster._kernel._max_tables = max_tables

    def leavers(self):
        cl = self.cluster
        return cl.members if cl.num_active > cl.replicas else ()

    @precondition(lambda self: self.leavers())
    @rule(data=st.data(), apply=st.booleans())
    def departure(self, data, apply):
        rank = data.draw(st.sampled_from(self.leavers()))
        self.cluster.plan_departure(rank)
        if apply:
            self.cluster.remove_server(rank)

    @precondition(lambda self: self.cluster.num_active < self.cluster.n)
    @rule(data=st.data(), apply=st.booleans())
    def addition(self, data, apply):
        cl = self.cluster
        out = sorted(set(cl.servers) - set(cl.members))
        ranks = data.draw(st.lists(st.sampled_from(out), min_size=1,
                                   unique=True))
        cl.plan_addition(ranks)
        if apply:
            for rank in ranks:
                cl.add_server(rank)

    @rule(oids=st.lists(OIDS, min_size=1, max_size=30))
    def locate(self, oids):
        assert_places_like_members_alone(self.cluster, oids)

    @rule(oids=PREHASHED)
    def prehash(self, oids):
        self.cluster.prehash(oids)

    @invariant()
    def probes_place_like_members_alone(self):
        assert_places_like_members_alone(self.cluster, list(PROBES))
        assert_slot_memo_exact(self.cluster._kernel)


TestOriginalKernelMachine = OriginalKernelMachine.TestCase
TestOriginalKernelMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None)


# ----------------------------------------------------------------------
# regressions
# ----------------------------------------------------------------------
def test_numpy_oid_does_not_poison_the_slot_cache():
    """Shrunk from ``locate_numpy_oid`` at the parent commit: the NumPy
    oid hashed its ``repr`` and, equal to the int as a dict key, left
    the wrong slot behind for it."""
    ech = ElasticConsistentHash(n=10, replicas=2, B=200)
    ech.locate(np.int64(7))
    assert ech.locate(7) == ech._locate_reference(7, ech.history.current)


def relayout_then_locate(relayout):
    """Re-layout a warm facade under both layouts: the ring is the new
    layout's, and every placement is the reference walk's."""
    for layout_mode in ("uniform", "equal-work"):
        ech = ElasticConsistentHash(n=10, replicas=2, B=200,
                                    layout_mode=layout_mode)
        ech.locate_bulk(range(200))
        relayout(ech, ech.p + 2)
        assert all(ech.ring.weight_of(rank) == ech.layout.weight_of(rank)
                   for rank in ech.layout.ranks)
        for oid in range(200):
            assert ech.locate(oid) == ech._locate_reference(
                oid, ech.history.current)


def depart_then_locate(cluster_class):
    """A warm baseline loses a server: placement is a ring built from
    the members alone."""
    cl = cluster_class(n=6, replicas=2, vnodes_per_server=40)
    cl.placement_bulk(range(300))
    cl.remove_server(6)
    assert_places_like_members_alone(cl, range(300))


def test_regression_relayout_is_a_new_ring_and_kernel():
    relayout_then_locate(dynamic_primaries.apply_relayout)


def test_regression_original_tables_are_keyed_by_member_set():
    depart_then_locate(OriginalCHCluster)


# ----------------------------------------------------------------------
# the machines fail when the kernel is broken
# ----------------------------------------------------------------------
def rewritten(fn, old, new):
    """*fn* with one fragment of its own source rewritten, compiled in
    its module's namespace — a mutant that cannot drift from the
    product."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__qualname__} no longer reads {old!r}"
    namespace = {}
    exec(compile(source.replace(old, new), f"<mutant {fn.__qualname__}>",
                 "exec"), fn.__globals__, namespace)
    return namespace[fn.__name__]


#: A re-layout that swaps the layout but keeps the old ring and kernel.
relayout_keeps_ring_and_kernel = rewritten(
    dynamic_primaries.apply_relayout,
    "ech._use_layout(_layout_for(ech, new_p))",
    "ech.layout = _layout_for(ech, new_p)")


class OriginalKeysByNone(OriginalCHCluster):
    """One slot table for every member set."""

    _table = rewritten(OriginalCHCluster._table, "table(members,",
                       "table(None,")


def keyed_by_count(method):
    """*method* of the facade asking for the table of its version's
    active-server count instead of its active set."""
    return rewritten(method, "(table.active,", "(table.num_active,")


class EchKeysByCount(ElasticConsistentHash):
    """Tables keyed by how many servers are on, not which: right while
    power-down follows the rank chain, wrong once different ranks have
    crashed at the same count."""

    locate = keyed_by_count(ElasticConsistentHash.locate)
    locate_bulk_positions = keyed_by_count(
        ElasticConsistentHash.locate_bulk_positions)
    record_writes = keyed_by_count(ElasticConsistentHash.record_writes)


class TestSeededMutants:
    SETTINGS = settings(max_examples=200, stateful_step_count=30,
                        deadline=None, derandomize=True, database=None,
                        phases=[Phase.generate])

    def assert_caught(self, machine=KernelMachine):
        with pytest.raises(AssertionError):
            run_state_machine_as_test(machine, settings=self.SETTINGS)

    def test_relayout_without_invalidation(self, monkeypatch):
        """A re-layout that swaps the layout but keeps the old ring and
        kernel — every table and cached slot it had survives."""
        with pytest.raises(AssertionError):
            relayout_then_locate(relayout_keeps_ring_and_kernel)
        monkeypatch.setattr(dynamic_primaries, "apply_relayout",
                            relayout_keeps_ring_and_kernel)
        self.assert_caught()

    def test_original_tables_keyed_by_none(self):
        with pytest.raises(AssertionError):
            depart_then_locate(OriginalKeysByNone)

        class Machine(OriginalKernelMachine):
            CLUSTER = OriginalKeysByNone

        self.assert_caught(Machine)

    def test_tables_keyed_by_active_count(self):
        ech = EchKeysByCount(n=8, replicas=2, B=100)
        ech.mark_failed(8)
        ech.locate_bulk(range(200))         # {1..7}'s table, keyed 7
        ech.mark_repaired(8)
        ech.set_active(8)
        ech.mark_failed(3)                  # {1,2,4,..,8}: also 7 on
        assert any(ech.locate(oid) != ech._locate_reference(
            oid, ech.membership) for oid in range(200))

        class Machine(KernelMachine):
            ECH = EchKeysByCount

        self.assert_caught(Machine)

    def test_bisect_right(self, monkeypatch):
        monkeypatch.setattr(ring_mod, "bisect_left", bisect.bisect_right)
        self.assert_caught()

    def test_prehash_misaligns_oids_and_slots(self, monkeypatch):
        monkeypatch.setattr(PlacementKernel, "prehash", rewritten(
            PlacementKernel.prehash, "zip(keys, slots", "zip(keys[1:], slots"))
        self.assert_caught()

    def test_no_wrap_at_the_top_of_the_ring(self, monkeypatch):
        monkeypatch.setattr(HashRing, "successor_slot", rewritten(
            HashRing.successor_slot,
            "return slot if slot < len(positions) else 0", "return slot"))
        self.assert_caught()
