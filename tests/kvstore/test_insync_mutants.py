"""Seeded mutants of the in-sync early-outs.

``_anti_entropy_pass`` and ``audit`` skip a key that is already in
sync: exactly R copies, every owner among them, all vectors equal
(for ``audit``: equal to the acked vector).  Each mutant below is the
product's own method with **one** of those conditions taken out of its
source text (so a mutant can never drift from the product, and an edit
that removes the condition fails the build of the mutant instead of
neutering it).  Each must be told apart from the every-key ×
every-node oracle by a regression small enough to read.

The generated machine of ``test_replicated_stateful.py`` (run with a
mutant in ``ReplicatedKVStore``'s place) is not how they are pinned:
every kill is a chain of five to twelve ops on *one* key's owners,
which it reaches only by luck of the seed — ``NoVectorCheck`` within 400 examples under
one seed and not within 1 000 under another, ``AuditAgainstEachOther``
after ~3 000 examples of 50 steps, neither count mutant in 4 000 x 60.
"""

import inspect
import textwrap
from itertools import combinations

import pytest

from repro.kvstore import replicated
from repro.kvstore.replicated import ReplicatedKVStore
from repro.obs.runtime import OBS

from ._reference_store import ReferenceKVStore
from .test_replicated_stateful import contents


def mutant(name, method, old, new):
    """``ReplicatedKVStore`` with *old* -> *new* in *method*'s source."""
    source = textwrap.dedent(
        inspect.getsource(getattr(ReplicatedKVStore, method)))
    assert source.count(old) == 1, f"{method} no longer contains {old!r}"
    namespace = {}
    exec(compile(source.replace(old, new), f"<mutant {name}>", "exec"),
         vars(replicated), namespace)
    return type(name, (ReplicatedKVStore,), {method: namespace[method]})


#: A straggler left behind by a link-loss window is never repaired.
NoVectorCheck = mutant(
    "NoVectorCheck", "_anti_entropy_pass",
    "if have is None or have.vv != vv:", "if have is None:")

#: A stray copy outside the owner set is never looked at: a departed
#: owner's copy is never dropped ...
NoCountCheckRepair = mutant(
    "NoCountCheckRepair", "_anti_entropy_pass",
    "if len(copies) == self.replicas and owners[0] in copies:",
    "if owners[0] in copies:")

#: ... and ``audit`` ignores a non-owner's newer tombstone.
NoCountCheckAudit = mutant(
    "NoCountCheckAudit", "audit",
    "if len(copies) == self.replicas:", "if copies:")

#: Three equally stale owners agree with each other, not the ledger.
AuditAgainstEachOther = mutant(
    "AuditAgainstEachOther", "audit",
    "versioned.vv != acked_vv:",
    "versioned.vv != next(iter(copies.values())).vv:")

MUTANTS = [NoVectorCheck, NoCountCheckRepair, NoCountCheckAudit,
           AuditAgainstEachOther]


def outcome(cls, scenario):
    """Everything observable about *scenario* run on a fresh *cls*:
    its return value, node contents, stats and events."""
    blocked = set()
    with OBS.bus.capture() as sink:
        store = cls([1, 2, 3, 4], replicas=3, vnodes_per_node=8,
                    link_blocked=lambda pair: frozenset(pair) in blocked,
                    on_no_quorum="degrade")
        result = scenario(store, blocked)
        events = list(sink.events())
    return result, contents(store), store.stats, events


# ----------------------------------------------------------------------
# shrunk regressions: (scenario, the mutants it must expose)
# ----------------------------------------------------------------------
def straggler_then_pass(store, blocked):
    """A write misses one owner behind a dead link; the link heals; the
    next pass must bring the straggler up to date."""
    a, _b, c = store.replica_set("k")
    store.set("k", "v1")
    blocked.add(frozenset((a, c)))
    store.set("k", "v2")               # quorum of 2: c keeps v1
    blocked.clear()
    return store.anti_entropy(), store.audit("after")


def equally_stale_owners(store, blocked):
    """The two owners holding the acked write crash; the straggler's
    old copy is re-replicated to all three.  They agree with each
    other — and the acked write is lost."""
    a, b, c = store.replica_set("k")
    store.set("k", "v1")
    blocked.add(frozenset((a, c)))
    store.set("k", "v2")               # acked on a and b
    blocked.clear()
    for nid in (a, b):
        store.crash_node(nid)
    for nid in (a, b):
        store.repair_node(nid)
    return store.audit("after")


def departed_owner_outlives_its_handoff(store, blocked):
    """A stray next to R owners that agree with each other.  A pass
    with the coordinator up leaves a stray behind only if the stray is
    *concurrent* with the newest copy, so it takes two lineages: writes
    coordinated by ``p`` in one view, and — two commits that reach no
    owner later — one coordinated by the crashed ``x`` that only ``r``
    hears.  ``r`` then leaves the view still holding its lineage, the
    next write makes every owner dominate it, and the next pass must
    drop it."""
    x, p, r = store.replica_set("k")
    (d,) = set(store.members) - {x, p, r}
    every_link = {frozenset(pair) for pair in combinations((x, p, r, d), 2)}
    store.set("k", "v1")               # {x:1} on x, p, r
    blocked |= every_link
    store.change_view([p, r, d])       # p coordinates; x hands off
    store.set("k", "p1")
    store.set("k", "p2")               # {x:1, p:2}, on p alone
    store.crash_node(x)
    store.change_view([x, p, r, d])    # reaches no owner: nothing merges
    blocked.discard(frozenset((x, r)))
    store.set("k", "x2")               # {x:2}, on r alone
    blocked.add(frozenset((x, r)))
    store.repair_node(x)               # x takes p's lineage (sum 3 > 2)
    store.change_view([x, p, d])       # r departs; nobody dominates {x:2}
    assert r in store._copies["k"]
    blocked.clear()
    store.set("k", "v3")               # {x:2, p:2} on x, p, d: dominates
    return store.anti_entropy(), store.audit("after")


def planted_stray_tombstone_then_audit(store, blocked):
    """The state the count test guards ``audit`` against, planted: R
    owners at the acked vector and a non-owner holding a newer
    tombstone.  No op sequence is known to reach it — a pass with the
    coordinator up hands it the newest copy there is, nothing but a
    pass makes a stray, and owners only move forward from there — so
    for ``audit`` the count test is what makes the early-out exact by
    inspection instead of by that argument."""
    store.set("k", "v1")
    (outsider,) = set(store.node_ids) - set(store.replica_set("k"))
    newest = store._copies["k"][store.coordinator_for("k")].copy()
    newest.vv[str(outsider)] = 1
    newest.state = None                # a delete the owners never saw
    store._copies["k"][outsider] = newest
    return store.audit("after")        # every-node scan: keys=0


REGRESSIONS = [
    (straggler_then_pass, {NoVectorCheck}),
    (equally_stale_owners, {AuditAgainstEachOther}),
    (departed_owner_outlives_its_handoff, {NoCountCheckRepair}),
    (planted_stray_tombstone_then_audit, {NoCountCheckAudit}),
]


@pytest.mark.parametrize("scenario, exposed", REGRESSIONS,
                         ids=[s.__name__ for s, _ in REGRESSIONS])
def test_regression_separates_mutants_from_the_oracle(scenario, exposed):
    expected = outcome(ReferenceKVStore, scenario)
    assert outcome(ReplicatedKVStore, scenario) == expected
    for cls in MUTANTS:
        same = outcome(cls, scenario) == expected
        assert same == (cls not in exposed), cls.__name__


def test_every_mutant_is_exposed_by_some_regression():
    assert set().union(*(exposed for _s, exposed in REGRESSIONS)) \
        == set(MUTANTS)


def test_scenarios_reach_the_states_they_claim():
    """On the oracle: the straggler is repaired, the lost ack counted,
    the stray dropped, the tombstone seen."""
    def manual_pass(events):
        (event,) = [e for e in events if e["kind"] == "kv.repair"
                    and e["reason"] == "manual"]
        return event["copied"], event["dropped"]

    _r, tables, _s, events = outcome(ReferenceKVStore, straggler_then_pass)
    assert manual_pass(events) == (1, 0)
    assert len({tuple(sorted(table["k"][0].items()))
                for table in tables.values() if "k" in table}) == 1
    assert outcome(ReferenceKVStore,
                   equally_stale_owners)[0]["lost_acked"] == 1
    _r, tables, _s, events = outcome(ReferenceKVStore,
                                     departed_owner_outlives_its_handoff)
    assert manual_pass(events) == (0, 1)
    assert sum("k" in table for table in tables.values()) == 3
    assert outcome(ReferenceKVStore,
                   planted_stray_tombstone_then_audit)[0]["keys"] == 0
