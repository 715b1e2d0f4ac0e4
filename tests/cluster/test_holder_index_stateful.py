"""Generated equivalence test for the cluster's holder index.

``stored_locations`` / ``_drop_surplus`` answer from an ``oid ->
holders`` index the servers maintain in ``store_replica`` /
``drop_replica``.  Hypothesis drives arbitrary lifecycles of both
cluster flavours — including crashes that outlive their recovery,
replica maps corrupted by reaching through ``cluster.servers[rank]``,
and operations that raise half-way — and after every step compares the
index and everything answered from it against the brute-force scan the
index replaced.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import (
    CapacityExceeded,
    ElasticCluster,
    OriginalCHCluster,
)

N = 8
SIZES = st.sampled_from([0, 512, 1024, 4096])
RANKS = st.integers(min_value=1, max_value=N)
ORPHAN = 900_000    # oids no write ever uses


# What an operation may legitimately raise half-way in the states this
# machine reaches (fewer live servers than r; a full server part-way
# through a replica chain).  Whatever was stored or dropped before the
# raise must be indexed all the same.
DEGRADED = (LookupError, CapacityExceeded)


def attempt(op, *args, **kwargs):
    try:
        return op(*args, **kwargs)
    except DEGRADED:
        return None


def brute_force_locations(cluster, oid):
    """The scan ``stored_locations`` used to be: ask every server."""
    return tuple(rank for rank, srv in cluster.servers.items()
                 if srv.has_replica(oid))


class HolderIndexInvariants:
    """Invariants shared by both machines (``self.cluster``)."""

    def all_oids(self):
        oids = {obj.oid for obj in self.cluster.catalog}
        oids.update(self.cluster.holder_index())
        for srv in self.cluster.servers.values():
            oids.update(srv.replicas())
        return sorted(oids)

    @invariant()
    def stored_locations_equal_brute_force(self):
        for oid in self.all_oids():
            assert (self.cluster.stored_locations(oid)
                    == brute_force_locations(self.cluster, oid)), oid

    @invariant()
    def index_holds_no_empty_entries(self):
        assert all(self.cluster.holder_index().values())

    @invariant()
    def verify_replication_equals_brute_force(self):
        cl = self.cluster
        for require_active in (False, True):
            expected = [
                obj.oid for obj in cl.catalog
                if sum(1 for r in brute_force_locations(cl, obj.oid)
                       if not require_active or cl.servers[r].is_on)
                < cl.replicas]
            assert cl.verify_replication(require_active) == expected

    # -- rules both flavours share -------------------------------------
    @rule(size=SIZES)
    def write_new(self, size):
        attempt(self.cluster.write, self.next_oid, size)
        self.next_oid += 1

    @precondition(lambda self: self.next_oid)
    @rule(data=st.data(), size=SIZES)
    def overwrite_with_new_size(self, data, size):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        attempt(self.cluster.write, oid, size)

    @precondition(lambda self: self.next_oid)
    @rule(data=st.data(), rank=RANKS)
    def drop_replica_behind_the_clusters_back(self, data, rank):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        self.cluster.servers[rank].drop_replica(oid)

    @rule(rank=RANKS, which=st.integers(0, 3), size=SIZES)
    def orphan_replica_behind_the_clusters_back(self, rank, which, size):
        srv = self.cluster.servers[rank]
        if srv.is_on:
            attempt(srv.store_replica, ORPHAN + which, size)


class ElasticIndexMachine(HolderIndexInvariants, RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # Rank 5 is nearly full so some writes raise between replicas.
        self.cluster = ElasticCluster(
            n=N, replicas=2, B=2_000,
            capacities=[None] * 4 + [6_000] + [None] * (N - 5))
        self.next_oid = 0
        self.crashes = []    # CrashRecoveryWork not yet committed

    @rule(k=st.integers(min_value=1, max_value=N))
    def resize(self, k):
        self.cluster.resize(k)

    @rule(budget=st.sampled_from([None, 1, 3_000]))
    def selective_reintegration(self, budget):
        attempt(self.cluster.run_selective_reintegration,
                budget_bytes=budget)

    @rule()
    def full_reintegration(self):
        attempt(self.cluster.full_reintegration_bytes)
        attempt(self.cluster.run_full_reintegration)

    @precondition(lambda self: self.cluster.ech.is_full_power
                  and self.cluster.ech.dirty.is_empty()
                  and not self.cluster.ech.failed)
    @rule(new_p=st.integers(min_value=2, max_value=4))
    def set_primary_count(self, new_p):
        attempt(self.cluster.set_primary_count, new_p)

    @precondition(lambda self: self.cluster.ech.num_active > 1)
    @rule(rank=RANKS)
    def crash_server(self, rank):
        if rank not in self.cluster.ech.failed:
            self.crashes.append(self.cluster.crash_server(rank))

    @precondition(lambda self: self.crashes)
    @rule()
    def commit_crash_recovery(self):
        work = self.crashes.pop(0)
        self.cluster.crash_recovery_outlook(work)
        attempt(self.cluster.commit_crash_recovery, work, strict=False)

    @precondition(lambda self: self.cluster.ech.failed)
    @rule(data=st.data())
    def repair_server(self, data):
        rank = data.draw(st.sampled_from(sorted(self.cluster.ech.failed)))
        self.cluster.repair_server(rank)

    @precondition(lambda self: self.next_oid)
    @rule(data=st.data())
    def read_with_fallback(self, data):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        cl = self.cluster
        if cl.catalog.get(oid) is None:
            return
        on = [r for r in brute_force_locations(cl, oid)
              if cl.servers[r].is_on]
        try:
            rank, _ = cl.read_with_fallback(oid)
        except LookupError:
            assert not on
        else:
            assert rank in on

    @invariant()
    def replication_audit_equals_brute_force(self):
        cl = self.cluster
        counts = [len(brute_force_locations(cl, obj.oid))
                  for obj in cl.catalog]
        assert cl.replication_audit() == {
            "objects": len(counts),
            "lost": sum(1 for c in counts if c == 0),
            "under_replicated": sum(1 for c in counts
                                    if 0 < c < cl.replicas),
        }


class OriginalIndexMachine(HolderIndexInvariants, RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = OriginalCHCluster(n=N, replicas=2,
                                         vnodes_per_server=50)
        self.next_oid = 0

    @precondition(lambda self: self.cluster.num_active > 2)
    @rule(data=st.data())
    def remove_server(self, data):
        rank = data.draw(st.sampled_from(self.cluster.members))
        self.cluster.remove_server(rank)

    @precondition(lambda self: self.cluster.num_active < N)
    @rule(data=st.data())
    def add_server(self, data):
        out = sorted(set(self.cluster.servers) - set(self.cluster.members))
        rank = data.draw(st.sampled_from(out))
        self.cluster.addition_migration_bytes(rank)
        self.cluster.add_server(rank)


TestElasticIndexMachine = ElasticIndexMachine.TestCase
TestElasticIndexMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestOriginalIndexMachine = OriginalIndexMachine.TestCase
TestOriginalIndexMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
