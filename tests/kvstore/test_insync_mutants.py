"""Seeded mutants of the settled set.

``_anti_entropy_pass`` and ``audit`` skip a *settled* key: exactly R
copies, every owner among them, all at the acked vector (``_settle``
decides, after every op, crash, pass or commit that touches the key).
Each mutant below is the product's own method with **one** of those
conditions — or one of the re-checks that keep the settled set
true — taken out of its source text (so a mutant can never drift from
the product, and an edit that removes the condition fails the build of
the mutant instead of neutering it).  Each must be told apart from the
every-key × every-node oracle by a regression small enough to read.

The generated machines of ``test_replicated_stateful.py`` (run with a
mutant in ``ReplicatedKVStore``'s place) are not how they are pinned:
every kill is a chain of five to twelve ops on *one* key's owners,
which they reach only by luck of the seed — ``NoVectorCheck`` within 400 examples under
one seed and not within 1 000 under another, ``AuditAgainstEachOther``
after ~3 000 examples of 50 steps, neither count mutant in 4 000 x 60.
(Under their committed settings the piled-up machine kills every
mutant but the two count mutants and ``CrashKeepsEmptiedKey``, which
only R = 1 can tell apart: at R >= 2 a crash empties only a key that
held one copy, and such a key was not settled.)
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



@pytest.fixture(autouse=True)
def small_rings(monkeypatch):
    """Eight vnodes a member: the machines and regressions here were
    written (and shrunk) on rings this small."""
    monkeypatch.setattr(replicated, "VNODES_PER_NODE", 8)


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
    "NoVectorCheck", "_settle",
    "if versioned is None or versioned.vv != acked_vv:",
    "if versioned is None:")

#: A stray copy outside the owner set is never looked at: a departed
#: owner's copy is never dropped ...  (With every owner holding a copy
#: there are at least R, so this and ``NoCountCheckAudit`` behave
#: alike: since the pass and the audit share one in-sync test, they
#: are one condition spelled two ways.)
NoCountCheckRepair = mutant(
    "NoCountCheckRepair", "_settle",
    "len(copies) != self.replicas", "len(copies) < self.replicas")

#: ... and a key with a non-owner's newer tombstone counts as settled,
#: so ``audit`` ignores the tombstone.
NoCountCheckAudit = mutant(
    "NoCountCheckAudit", "_settle",
    " or len(copies) != self.replicas", "")

#: Three equally stale owners agree with each other, not the ledger.
AuditAgainstEachOther = mutant(
    "AuditAgainstEachOther", "_settle",
    "versioned.vv != acked_vv:",
    "versioned.vv != next(iter(copies.values())).vv:")

#: A write that misses an owner leaves its key settled.
OpSkipsRecheck = mutant(
    "OpSkipsRecheck", "_mutate", "self._settle(key)", "pass")

#: A key whose owners moved stays settled through the commit.
CommitKeepsMovedKey = mutant(
    "CommitKeepsMovedKey", "commit_view", "del self._settled[key]", "pass")

#: A key whose last copy a crash took stays settled.
CrashKeepsEmptiedKey = mutant(
    "CrashKeepsEmptiedKey", "crash_node", "self._settled.pop(key, None)",
    "pass")

MUTANTS = [NoVectorCheck, NoCountCheckRepair, NoCountCheckAudit,
           AuditAgainstEachOther, OpSkipsRecheck, CommitKeepsMovedKey,
           CrashKeepsEmptiedKey]


def outcome(cls, scenario):
    """Everything observable about *scenario* run on a fresh *cls*
    (R = 3 unless the scenario says ``replicas``): its return value,
    node contents, stats and events."""
    blocked = set()
    with OBS.bus.capture() as sink:
        store = cls([1, 2, 3, 4], replicas=getattr(scenario, "replicas", 3),
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
    inspection instead of by that argument.  Planting bypasses the ops,
    so the scenario re-checks the key as every op touching it does."""
    store.set("k", "v1")
    (outsider,) = set(store.node_ids) - set(store.replica_set("k"))
    newest = store._copies["k"][store.replica_set("k")[0]].copy()
    newest.vv[str(outsider)] = 1
    newest.state = None                # a delete the owners never saw
    store._copies["k"][outsider] = newest
    store._settle("k")
    return store.audit("after")        # every-node scan: keys=0


def straggler_behind_a_settled_key(store, blocked):
    """A pass settles the key; the next write misses an owner behind a
    dead link.  The write must re-check its key, or the next pass
    never looks at the straggler."""
    a, _b, c = store.replica_set("k")
    store.set("k", "v1")
    store.anti_entropy()
    blocked.add(frozenset((a, c)))
    store.set("k", "v2")
    blocked.clear()
    return store.anti_entropy(), store.audit("after")


def owner_moves_on_commit(store, blocked):
    """A settled key loses an owner to a view change: the commit's
    pass must hand the newcomer a copy and drop the leaver's."""
    owners = store.replica_set("k")
    store.set("k", "v1")
    (outsider,) = set(store.members) - set(owners)
    store.change_view([*owners[:2], outsider])
    return store.audit("after")


def single_copy_crash(store, blocked):
    """R = 1: crashing the owner takes the only copy, and the acked
    write is lost."""
    store.set("k", "v1")
    store.crash_node(store.replica_set("k")[0])
    return store.audit("after")


single_copy_crash.replicas = 1


REGRESSIONS = [
    (straggler_then_pass, {NoVectorCheck}),
    (equally_stale_owners, {NoVectorCheck, AuditAgainstEachOther}),
    (departed_owner_outlives_its_handoff,
     {NoCountCheckRepair, NoCountCheckAudit, CommitKeepsMovedKey}),
    (planted_stray_tombstone_then_audit,
     {NoCountCheckRepair, NoCountCheckAudit}),
    (straggler_behind_a_settled_key, {NoVectorCheck, OpSkipsRecheck}),
    (owner_moves_on_commit, {CommitKeepsMovedKey}),
    (single_copy_crash, {CrashKeepsEmptiedKey}),
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
    """On the oracle: the stragglers are repaired, the lost acks
    counted, the strays dropped, the tombstone seen."""
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
    (copied, audit), *_ = outcome(ReferenceKVStore,
                                  straggler_behind_a_settled_key)
    assert copied == 1 and audit["under_replicated"] == 0
    _r, tables, _s, events = outcome(ReferenceKVStore, owner_moves_on_commit)
    (commit,) = [e for e in events if e["kind"] == "kv.repair"
                 and e["reason"] == "view-commit" and e["epoch"] == 2]
    assert (commit["copied"], commit["dropped"]) == (1, 1)
    assert sum("k" in table for table in tables.values()) == 3
    assert outcome(ReferenceKVStore,
                   single_copy_crash)[0]["lost_acked"] == 1
