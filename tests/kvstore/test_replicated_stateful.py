"""Generated differential test for the replicated store's per-view
replica-set table, its single newest-copy scan, and the key-major
replica storage with its in-sync early-outs.

Hypothesis drives :class:`ReplicatedKVStore` and the test-only
:class:`ReferenceKVStore` (the unmemoised, every-key × every-node
bodies they replaced) side by side through arbitrary interleavings of
quorum ops, sessions, two-step view changes, crashes (of members and
of nodes that left the view), repairs, partitions, anti-entropy,
audits, key listings and admin wipes.  Every op must return (or raise)
the same thing on both, and after every step placement, every node's
contents, the durability ledger, the audit report, the counters and
the emitted events must be identical — and the mapping well formed.
The piled-up variant audits only as a rule, so writes, crashes, view
commits, link toggles and wipes accumulate between passes the way they
do in a churn run, and checks that the settled set is exactly the keys
the definition names.  ``test_insync_mutants.py`` pins what these
machines are too shallow to find by themselves: the stores with one
early-out condition or one settled-set re-check removed.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kvstore import replicated
from repro.kvstore.replicated import (
    NoQuorumError,
    ReplicatedKVStore,
    StaleSessionError,
)
from repro.kvstore.store import WrongTypeError
from repro.obs.runtime import OBS

from ._reference_store import ReferenceKVStore

NODES = [1, 2, 3, 4, 5, 6]
REPLICAS = 3
# Strings, counters and lists share one keyspace on purpose: a
# WrongTypeError raised half-way through a mutation is one more outcome
# the two stores must agree on.
KEYS = [f"k{i}" for i in range(8)]

keys = st.sampled_from(KEYS)
clients = st.sampled_from([None, "alice", "bob"])
nodes = st.sampled_from(NODES)

# What an op may legitimately raise in the states this machine reaches.
EXPECTED = (NoQuorumError, StaleSessionError, WrongTypeError,
            ValueError, RuntimeError, KeyError)


@pytest.fixture(autouse=True)
def small_rings(monkeypatch):
    """Eight vnodes a member: the machines and regressions here were
    written (and shrunk) on rings this small."""
    monkeypatch.setattr(replicated, "VNODES_PER_NODE", 8)


def contents(store):
    """Every admitted node's table, vectors and states, read out of
    the key-major mapping."""
    tables = {nid: {} for nid in store._nodes}
    for key, copies in store._copies.items():
        for nid, v in copies.items():
            tables[nid][key] = (v.vv, v.state)
    return tables


class TableVsReferenceMachine(RuleBasedStateMachine):
    ON_NO_QUORUM = "raise"

    def __init__(self):
        super().__init__()
        self.blocked = set()     # frozenset({a, b}) dead links, shared

        def link_blocked(pair):
            return frozenset(pair) in self.blocked

        self.events = ([], [])
        self.stores = []
        for cls, log in zip((ReplicatedKVStore, ReferenceKVStore),
                            self.events):
            with OBS.bus.capture() as sink:
                self.stores.append(cls(
                    NODES[:4], replicas=REPLICAS,
                    link_blocked=link_blocked,
                    on_no_quorum=self.ON_NO_QUORUM))
                log.extend(sink.events())

    def both(self, op):
        """Run *op* on the real store, then on the reference: same
        result or same exception.  Events land in per-store logs."""
        outcomes = []
        for store, log in zip(self.stores, self.events):
            with OBS.bus.capture() as sink:
                try:
                    outcome = ("returned", op(store))
                except EXPECTED as exc:
                    outcome = ("raised", type(exc).__name__, str(exc))
                log.extend(sink.events())
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1]

    # -- quorum ops, with and without a session ------------------------
    @rule(key=keys, value=st.integers(0, 3), client=clients)
    def set(self, key, value, client):
        self.both(lambda s: s.set(key, value, client=client))

    @rule(key=keys, client=clients)
    def incr(self, key, client):
        self.both(lambda s: s.incr(key, client=client))

    @rule(key=keys, value=st.integers(0, 3), client=clients)
    def rpush(self, key, value, client):
        self.both(lambda s: s.rpush(key, value, client=client))

    @rule(key=keys, client=clients)
    def lpop(self, key, client):
        self.both(lambda s: s.lpop(key, client=client))

    @rule(key=keys, client=clients)
    def delete(self, key, client):
        self.both(lambda s: s.delete(key, client=client))

    @rule(key=keys, client=clients)
    def get(self, key, client):
        self.both(lambda s: s.get(key, client=client))

    @rule(key=keys, client=clients)
    def lrange(self, key, client):
        self.both(lambda s: s.lrange(key, 0, -1, client=client))

    # -- membership ----------------------------------------------------
    @rule(members=st.lists(nodes, unique=True, min_size=REPLICAS - 1))
    def propose_view(self, members):
        self.both(lambda s: s.propose_view(members))

    @rule()
    def commit_view(self):
        self.both(lambda s: s.commit_view())

    # -- faults --------------------------------------------------------
    @rule(node=nodes)
    def crash_node(self, node):
        self.both(lambda s: s.crash_node(node))

    @rule(pick=st.integers(0, len(NODES)))
    def crash_non_member(self, pick):
        """Powering down is not a crash: a node that left the view may
        still hold copies nobody has taken over — until it crashes."""
        real = self.stores[0]
        outside = [n for n in real.node_ids if n not in real.members]
        if outside:
            self.both(lambda s: s.crash_node(outside[pick % len(outside)]))

    @rule(key=keys, i=st.integers(0, REPLICAS - 1))
    def crash_owner(self, key, i):
        node = self.stores[0].replica_set(key)[i]
        self.both(lambda s: s.crash_node(node))

    @rule(node=nodes)
    def repair_node(self, node):
        self.both(lambda s: s.repair_node(node))

    @rule()
    def repair_every_node(self):
        for node in self.stores[0].node_ids:
            if node in self.stores[0]._down:
                self.both(lambda s: s.repair_node(node))

    @rule(a=nodes, b=nodes)
    def toggle_link(self, a, b):
        self.blocked ^= {frozenset((a, b))}

    @rule(key=keys, i=st.integers(1, REPLICAS - 1))
    def toggle_replica_link(self, key, i):
        """The link a write to *key* has to cross: how stragglers are
        made (and, toggled back, how they get found)."""
        owners = self.stores[0].replica_set(key)
        self.blocked ^= {frozenset((owners[0], owners[i]))}

    @rule()
    def heal_links(self):
        self.blocked.clear()

    # -- whole-keyspace passes -----------------------------------------
    @rule()
    def anti_entropy(self):
        self.both(lambda s: s.anti_entropy())

    @rule()
    def flushall(self):
        self.both(lambda s: s.flushall())

    @rule()
    def keys_and_dbsize(self):
        self.both(lambda s: (s.keys(), s.dbsize()))

    # -- after every step ----------------------------------------------
    @invariant()
    def stores_are_indistinguishable(self):
        real, ref = self.stores
        for key in KEYS:
            assert real.replica_set(key) == ref.replica_set(key), key
        assert contents(real) == contents(ref)
        assert real._acked == ref._acked
        self.both(lambda s: s.audit("step"))
        assert real.stats == ref.stats
        assert self.events[0] == self.events[1]

    @invariant()
    def mapping_is_well_formed(self):
        """No empty per-key dict survives a wipe or a drop, and every
        stored node id is an admitted one."""
        for store in self.stores:
            for key, copies in store._copies.items():
                assert copies, key
                assert set(copies) <= set(store._nodes), key


class TableVsReferenceDegradeMachine(TableVsReferenceMachine):
    """Same, in the availability-over-consistency mode the chaos
    harness runs the dirty table in."""

    ON_NO_QUORUM = "degrade"


def settled_by_definition(store, owners_of):
    """``key -> holds a live value`` for every key with exactly R
    copies, on exactly its owners, all at the acked vector, all live
    or all tombstones."""
    out = {}
    for key, copies in store._copies.items():
        acked = store._acked.get(key)
        owners = owners_of(key)
        if acked is None or set(copies) != set(owners):
            continue
        if all(copies[nid].vv == acked for nid in owners):
            tombstones = {copies[nid].state is None for nid in owners}
            if len(tombstones) == 1:
                out[key] = not tombstones.pop()
    return out


class PiledUpChangesMachine(TableVsReferenceMachine):
    """No audit between steps: audits are a rule like anti-entropy, so
    changes pile up between the passes that read the settled set."""

    ON_NO_QUORUM = "degrade"

    @rule()
    def audit(self):
        self.both(lambda s: s.audit("rule"))

    @invariant()
    def stores_are_indistinguishable(self):
        real, ref = self.stores
        assert contents(real) == contents(ref)
        assert real._acked == ref._acked
        assert real.stats == ref.stats
        assert self.events[0] == self.events[1]

    @invariant()
    def settled_set_is_exact(self):
        real, ref = self.stores
        assert real._settled == settled_by_definition(real, ref.replica_set)


SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None,
                    derandomize=True)

TestTableVsReference = TableVsReferenceMachine.TestCase
TestTableVsReference.settings = SETTINGS
TestTableVsReferenceDegrade = TableVsReferenceDegradeMachine.TestCase
TestTableVsReferenceDegrade.settings = SETTINGS
TestPiledUpChanges = PiledUpChangesMachine.TestCase
TestPiledUpChanges.settings = settings(SETTINGS, stateful_step_count=80)
