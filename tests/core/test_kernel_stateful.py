"""Generated equivalence test for the placement kernel.

The kernel answers ``locate`` / ``locate_bulk`` from whole-version slot
tables kept in a small LRU, an oid→slot cache, and a bisect over the
ring's positions; ``ElasticConsistentHash._locate_reference`` walks the
ring per object.  Hypothesis drives arbitrary interleavings of resizes,
crashes, repairs, re-layouts and lookups against *any* past version —
with the LRU small enough that tables are evicted and rebuilt — and
every answer (servers, flags, ``LookupError`` text) must be the
reference's.

The reference shares ``HashRing.successor_slot`` with the kernel, so
the scalar successor is also held to the array ``searchsorted`` at the
positions where the two could differ: on a vnode, one either side of
it, and at both ends of the circle.

``TestSeededMutants`` shows the machine is not vacuous: it fails on a
re-layout that forgets to invalidate, on ``bisect_right``, and on a
successor that does not wrap at slot == V.
"""

import bisect

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

import repro.hashring.ring as ring_mod
from repro.core.dynamic_primaries import apply_relayout
from repro.core.elastic import ElasticConsistentHash
from repro.hashring.ring import HashRing
from tests.core.test_kernel_batch import walk

TOP = 2 ** 64 - 1
OIDS = st.integers(min_value=0, max_value=5_000)
PROBES = tuple(range(0, 120, 10))


def outcome(fn, *args):
    """A placement, or the text of the ``LookupError`` it raised."""
    try:
        return fn(*args)
    except LookupError as exc:
        return str(exc)


class KernelMachine(RuleBasedStateMachine):
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
        self.ech = ElasticConsistentHash(
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
        ring = self.ech.ring
        ring._rebuild_if_dirty()        # a re-layout leaves it dirty
        return ring._position_ints

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
        """New primary count: ring weights change under the equal-work
        layout (generation rule); under the uniform layout only the
        explicit ``invalidate_placement_cache`` protects the tables."""
        ech = self.ech
        ech.set_active(ech.n)
        new_p = data.draw(st.integers(min_value=1, max_value=ech.n))
        if new_p != ech.p:
            apply_relayout(ech, new_p)

    # -- lookups -------------------------------------------------------
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
    def cached_and_current_versions_equal_reference(self):
        ech = self.ech
        for version in [*ech._kernel.cached_tables, ech.current_version]:
            for oid in PROBES[:4]:
                self.check_scalar(oid, version)
            self.check_bulk(list(PROBES), version)
        assert len(ech._kernel.cached_tables) <= ech._kernel._max_tables


TestKernelMachine = KernelMachine.TestCase
TestKernelMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)


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


# ----------------------------------------------------------------------
# the machine fails when the kernel is broken
# ----------------------------------------------------------------------
class TestSeededMutants:
    SETTINGS = settings(max_examples=200, stateful_step_count=30,
                        deadline=None, derandomize=True, database=None,
                        phases=[Phase.generate])

    def assert_caught(self):
        with pytest.raises(AssertionError):
            run_state_machine_as_test(KernelMachine,
                                      settings=self.SETTINGS)

    def test_relayout_without_invalidation(self, monkeypatch):
        monkeypatch.setattr(ElasticConsistentHash,
                            "invalidate_placement_cache",
                            lambda self: None)
        self.assert_caught()

    def test_bisect_right(self, monkeypatch):
        monkeypatch.setattr(ring_mod, "bisect_left", bisect.bisect_right)
        self.assert_caught()

    def test_no_wrap_at_the_top_of_the_ring(self, monkeypatch):
        monkeypatch.setattr(
            HashRing, "_slot_at",
            lambda self, position: bisect.bisect_left(
                self._position_ints, position))
        self.assert_caught()
