"""Generated equivalence test for the cluster's holder index.

``stored_locations`` and the write path's surplus drop answer from an
``oid -> holders`` index the servers maintain in ``store_replica`` /
``drop_replica``.  Hypothesis drives arbitrary lifecycles of both
cluster flavours — including crashes that outlive their recovery,
replica maps corrupted by reaching through ``cluster.servers[rank]``,
and operations that raise half-way — and after every step compares the
index and everything answered from it against the brute-force scan the
index replaced.

The same lifecycles hold every data-movement rule to the
first-principles oracle in ``_movement_oracle``: planning mutates
nothing, the plan is the oracle's moves, applying changes the holder
index by exactly those moves, bytes returned == ``plan.total_bytes`` ==
the oracle's count, and a budgeted selective pass migrates the tasks of
the unbudgeted one in the same order.  A second pair of machines runs
inside the paper's operating envelope — nothing behind the cluster's
back, no full disks, >= r servers up, one crash at a time — where
every apply must also leave fsck clean.  Two seeded mutants (a full
re-integration planner that forgets the unverified re-copies, an
applier that drops no surplus) show the checks have teeth.
"""

import inspect
import textwrap

import pytest
from hypothesis import Phase as HypothesisPhase

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cluster import (
    CapacityExceeded,
    ElasticCluster,
    OriginalCHCluster,
    check_cluster,
    check_holder_index,
)
from repro.cluster import cluster as cluster_module

from . import _movement_oracle as oracle

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

    #: False inside the operating envelope: no replica maps corrupted
    #: from outside, no full disks.
    CORRUPT = True

    def planned(self, planner, expected_fn, *args):
        """``(plan, expected moves)`` with the planner shown pure, or
        None where the membership cannot place r replicas — which the
        planner must then say too."""
        try:
            expected = expected_fn(self.cluster, *args)
        except LookupError:
            with pytest.raises(LookupError):
                planner(*args)
            return None
        return oracle.plan_purely(self.cluster, planner, *args), expected

    def check_rule(self, plan, expected, apply):
        oracle.check_rule(self.cluster, plan, expected, apply,
                          tolerate=DEGRADED if self.CORRUPT else ())

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

    @precondition(lambda self: self.CORRUPT and self.next_oid)
    @rule(data=st.data(), rank=RANKS)
    def drop_replica_behind_the_clusters_back(self, data, rank):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        self.cluster.servers[rank].drop_replica(oid)

    @precondition(lambda self: self.CORRUPT)
    @rule(rank=RANKS, which=st.integers(0, 3), size=SIZES)
    def orphan_replica_behind_the_clusters_back(self, rank, which, size):
        srv = self.cluster.servers[rank]
        if srv.is_on:
            attempt(srv.store_replica, ORPHAN + which, size)


class ElasticIndexMachine(HolderIndexInvariants, RuleBasedStateMachine):
    CLUSTER = ElasticCluster

    def __init__(self):
        super().__init__()
        # Rank 5 is nearly full so some writes raise between replicas.
        self.cluster = self.CLUSTER(
            n=N, replicas=2, B=2_000,
            capacities=([None] * 4 + [6_000] + [None] * (N - 5)
                        if self.CORRUPT else None))
        self.next_oid = 0
        self.crashes = []    # CrashRecoveryWork not yet committed

    @rule(k=st.integers(min_value=1, max_value=N))
    def resize(self, k):
        if self.CORRUPT or k >= self.cluster.replicas:
            self.cluster.resize(k)

    @rule(budgets=st.lists(st.sampled_from([1, 3_000]), max_size=3),
          finish=st.booleans())
    def selective_reintegration(self, budgets, finish):
        """Budgeted slices (then, with *finish*, the rest): the tasks
        of the one planned pass, in its order."""
        cl = self.cluster
        planned = self.planned(cl.plan_selective_reintegration,
                               oracle.expected_selective)
        if planned is None:
            return
        plan, expected = planned
        assert oracle.moves_of(plan.tasks) == expected
        before = dict(cl.holder_index())
        tasks, moved, caught_up = [], 0, False
        try:
            for budget in budgets + [None] * finish:
                report = cl.run_selective_reintegration(budget_bytes=budget)
                tasks += report.tasks
                moved += report.bytes_migrated
                caught_up = report.caught_up
        except DEGRADED:
            assert self.CORRUPT
            return
        assert tasks == plan.tasks[:len(tasks)]
        if caught_up:
            assert tasks == plan.tasks
            assert moved == plan.total_bytes == oracle.bytes_of(expected)
            assert dict(cl.holder_index()) == oracle.holders_after(
                before, expected)

    @rule()
    def full_reintegration(self):
        cl = self.cluster
        planned = self.planned(cl.plan_full_reintegration,
                               oracle.expected_full)
        if planned is not None:
            self.check_rule(*planned, cl.run_full_reintegration)

    @precondition(lambda self: self.cluster.ech.is_full_power
                  and self.cluster.ech.dirty.is_empty()
                  and not self.cluster.ech.failed)
    @rule(new_p=st.integers(min_value=2, max_value=4))
    def set_primary_count(self, new_p):
        attempt(self.cluster.set_primary_count, new_p)

    @precondition(lambda self: self.cluster.ech.num_active > 1)
    @rule(rank=RANKS)
    def crash_server(self, rank):
        cl = self.cluster
        if rank in cl.ech.failed:
            return
        if self.CORRUPT:
            self.crashes.append(cl.crash_server(rank))
        # The paper's operating assumption (§III-B), as in
        # tests/property/test_cluster_stateful.py: a primary stays up,
        # r servers survive, and recovery lands before the next event.
        elif (rank > 1 and not cl.ech.failed
              and cl.ech.membership.is_active(rank)
              and cl.ech.num_active > cl.replicas):
            self.recover(cl.crash_server(rank))

    @precondition(lambda self: self.crashes)
    @rule()
    def commit_crash_recovery(self):
        self.recover(self.crashes.pop(0))

    def recover(self, work):
        cl = self.cluster
        expected, gone = oracle.expected_crash(cl, work)
        plan = oracle.plan_purely(cl, cl.crash_recovery_outlook, work)
        assert [t.oid for t in plan.tasks] == list(work.lost)
        assert [t.oid for t in plan.tasks if not t.from_servers] == gone
        already_lost = list(cl.lost_objects)
        self.check_rule(plan, expected,
                        lambda: cl.commit_crash_recovery(work, strict=False))
        assert cl.lost_objects == already_lost + gone

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


class ElasticEnvelopeMachine(ElasticIndexMachine):
    """The same lifecycle inside the operating envelope, where every
    apply must leave fsck clean."""

    CORRUPT = False

    @invariant()
    def fsck_clean(self):
        report = check_cluster(self.cluster)
        assert report.clean, report.summary()


class OriginalIndexMachine(HolderIndexInvariants, RuleBasedStateMachine):
    CLUSTER = OriginalCHCluster

    def __init__(self):
        super().__init__()
        self.cluster = self.CLUSTER(n=N, replicas=2, vnodes_per_server=50)
        self.next_oid = 0

    def planned(self, planner, expected_fn, *ranks):
        """The baseline's planners pass a hypothetical member set and
        mutate nothing: the ring is the same object, and the members
        and ``membership_token`` are as they were."""
        cl = self.cluster
        ring, members, token = cl.ring, cl.members, cl.membership_token
        planned = super().planned(planner, expected_fn, *ranks)
        assert cl.ring is ring
        assert (cl.members, cl.membership_token) == (members, token)
        return planned

    @precondition(lambda self: self.cluster.num_active > 2)
    @rule(data=st.data())
    def remove_server(self, data):
        cl = self.cluster
        rank = data.draw(st.sampled_from(cl.members))
        self.check_rule(*self.planned(cl.plan_departure,
                                      oracle.expected_departure, rank),
                        lambda: cl.remove_server(rank))

    @precondition(lambda self: self.cluster.num_active < N)
    @rule(data=st.data())
    def add_servers(self, data):
        cl = self.cluster
        out = sorted(set(cl.servers) - set(cl.members))
        ranks = data.draw(st.lists(st.sampled_from(out), min_size=1,
                                   max_size=3, unique=True))
        # The batched plan is a plan like any other; the cluster joins
        # servers one at a time.
        plan, expected = self.planned(cl.plan_addition,
                                      oracle.expected_addition, ranks)
        assert oracle.moves_of(plan.tasks) == expected
        for rank in ranks:
            self.check_rule(*self.planned(cl.plan_addition,
                                          oracle.expected_addition, [rank]),
                            lambda: cl.add_server(rank))


class OriginalEnvelopeMachine(OriginalIndexMachine):
    CORRUPT = False

    @invariant()
    def fsck_clean(self):
        cl = self.cluster
        assert check_holder_index(cl) == []
        assert cl.verify_replication() == []
        for obj in cl.catalog:
            assert (set(cl.stored_locations(obj.oid))
                    == set(cl.placement(obj.oid).servers))


MACHINE_SETTINGS = settings(max_examples=25, stateful_step_count=30,
                            deadline=None)
TestElasticIndexMachine = ElasticIndexMachine.TestCase
TestOriginalIndexMachine = OriginalIndexMachine.TestCase
TestElasticEnvelopeMachine = ElasticEnvelopeMachine.TestCase
TestOriginalEnvelopeMachine = OriginalEnvelopeMachine.TestCase
for case in (TestElasticIndexMachine, TestOriginalIndexMachine,
             TestElasticEnvelopeMachine, TestOriginalEnvelopeMachine):
    case.settings = MACHINE_SETTINGS


# ----------------------------------------------------------------------
# seeded mutants
# ----------------------------------------------------------------------
def mutant(base, method, old, new):
    """*base* with one fragment of *method*'s own source rewritten, so
    the mutant cannot drift from the product."""
    source = textwrap.dedent(inspect.getsource(getattr(base, method)))
    assert source.count(old) == 1, f"{method} no longer reads {old!r}"
    namespace = {}
    exec(compile(source.replace(old, new), f"<mutant {method}>", "exec"),
         vars(cluster_module), namespace)
    return type(f"Mutant_{method}", (base,), {method: namespace[method]})


#: "primary+full" that trusts what the re-powered ranks already hold —
#: selective's saving without selective's dirty table.
ForgetsUnverifiedRecopies = mutant(
    ElasticCluster, "plan_full_reintegration", ", recopy=unverified", "")
#: An applier that lands the copies and leaves the surplus behind.
SKIP_DROPS = ("for rank in task.dropped_from:", "for rank in ():")
ElasticKeepsSurplus = mutant(ElasticCluster, "_apply", *SKIP_DROPS)
OriginalKeepsSurplus = mutant(OriginalCHCluster, "_apply", *SKIP_DROPS)


class ForgetfulFullMachine(ElasticEnvelopeMachine):
    CLUSTER = ForgetsUnverifiedRecopies


class ElasticSurplusMachine(ElasticEnvelopeMachine):
    CLUSTER = ElasticKeepsSurplus


class OriginalSurplusMachine(OriginalEnvelopeMachine):
    CLUSTER = OriginalKeepsSurplus


@pytest.mark.parametrize("machine", [ForgetfulFullMachine,
                                     ElasticSurplusMachine,
                                     OriginalSurplusMachine])
def test_machine_kills_the_mutant(machine):
    # Generate only: the first counterexample is the kill.
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=settings(
            max_examples=300, stateful_step_count=30, deadline=None,
            derandomize=True, database=None, report_multiple_bugs=False,
            phases=[HypothesisPhase.generate]))
