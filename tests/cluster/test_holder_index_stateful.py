"""Generated differential: the object table against the bookkeeping it
replaced.

A cluster records each replica once, in its
:class:`~repro.cluster.objects.ObjectTable`.  ``_reference_table`` keeps
the catalog, per-server replica maps and holder index the table
replaced, behind the same interface.  Hypothesis drives arbitrary
lifecycles of both cluster flavours twice — once on the table, once on
the reference — including batches that fill a server partway, crashes
that outlive their recovery (committed strict or not), replicas
dropped or added by reaching through ``cluster.objects`` and operations
that raise half-way.  After every step both sides must agree on every
operation's outcome and on everything the table answers: each object's
header size and holders, each rank's replicas in landing order, used
bytes and replica counts, ``replication_audit`` and
``verify_replication``, and the dirty table and header versions the
placement layer keeps.

The same lifecycles hold every data-movement rule to the
first-principles oracle in ``_movement_oracle``: planning mutates
nothing, the plan is the oracle's moves, applying changes the holders
by exactly those moves, bytes returned == ``plan.total_bytes`` == the
oracle's count, and a budgeted selective pass migrates the tasks of the
unbudgeted one in the same order.  A second pair of machines runs
inside the paper's operating envelope — nothing behind the cluster's
back, no full disks, >= r servers up, one crash at a time — where every
apply must also leave fsck clean.  Two seeded mutants (a full
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
)
from repro.cluster import cluster as cluster_module

from . import _movement_oracle as oracle
from ._reference_table import observe, reference_cluster

N = 8
SIZES = st.sampled_from([0, 512, 1024, 4096])
RANKS = st.integers(min_value=1, max_value=N)


# What an operation may legitimately raise half-way in the states this
# machine reaches (fewer live servers than r; a full server part-way
# through a replica chain).  Whatever was stored or dropped before the
# raise must be recorded all the same.
DEGRADED = (LookupError, CapacityExceeded)


def outcome(op, *args, **kwargs):
    """What *op* returned, or the exception it raised."""
    try:
        return ("ok", op(*args, **kwargs))
    except (LookupError, ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))


class TableDifferential:
    """Rules and invariants both machines share: ``self.cluster`` runs
    on the object table, ``self.reference`` on the old bookkeeping."""

    #: False inside the operating envelope: nothing reached through
    #: ``cluster.objects``, no full disks.
    CORRUPT = True

    def build(self, **kwargs):
        self.cluster = self.CLUSTER(**kwargs)
        self.reference = reference_cluster(self.CLUSTER, **kwargs)
        self.next_oid = 0

    def both(self, op, summary=lambda out: out):
        """Run ``op(cluster)`` on either side; the outcomes agree.
        Returns the product's result, or None after a degraded raise
        (any other raise fails the test)."""
        got = outcome(op, self.cluster)
        want = outcome(op, self.reference)
        assert got[0] == want[0], (got, want)
        if got[0] == "ok":
            assert summary(got[1]) == summary(want[1])
            return got[1]
        assert got[1:] == want[1:]
        if not issubclass(got[1], DEGRADED):
            raise AssertionError(f"unexpected {got[1].__name__}: {got[2]}")
        return None

    def reference_follows(self, op):
        """*op* on the reference, after the product ran it under the
        movement oracle; the state comparison judges the two."""
        try:
            op(self.reference)
        except DEGRADED:
            assert self.CORRUPT

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
        return oracle.check_rule(self.cluster, plan, expected, apply,
                                 tolerate=DEGRADED if self.CORRUPT else ())

    @invariant()
    def table_answers_what_the_reference_answers(self):
        assert observe(self.cluster) == observe(self.reference)

    # -- rules both flavours share -------------------------------------
    @rule(size=SIZES)
    def write_new(self, size):
        oid = self.next_oid
        self.next_oid += 1
        self.both(lambda cl: cl.write(oid, size))

    @rule(count=st.integers(1, 6), rewrite=st.booleans(), size=SIZES)
    def write_many(self, count, rewrite, size):
        start = 0 if rewrite else self.next_oid
        oids = list(range(start, start + count))
        self.next_oid = max(self.next_oid, start + count)
        self.both(lambda cl: cl.write_many(oids, size))

    @precondition(lambda self: self.next_oid)
    @rule(data=st.data(), size=SIZES)
    def overwrite_with_new_size(self, data, size):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        self.both(lambda cl: cl.write(oid, size))

    @precondition(lambda self: self.CORRUPT and self.next_oid)
    @rule(data=st.data(), rank=RANKS)
    def drop_replica_behind_the_clusters_back(self, data, rank):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        self.both(lambda cl: cl.objects.drop(oid, rank))

    @precondition(lambda self: self.CORRUPT and self.next_oid)
    @rule(data=st.data(), rank=RANKS, size=SIZES)
    def surplus_replica_behind_the_clusters_back(self, data, rank, size):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        if oid in self.cluster.objects and self.cluster.servers[rank].is_on:
            self.both(lambda cl: cl.objects.store(oid, size, [rank]))


class ElasticIndexMachine(TableDifferential, RuleBasedStateMachine):
    CLUSTER = ElasticCluster

    def __init__(self):
        super().__init__()
        # Rank 5 is nearly full so some writes raise between replicas.
        self.build(n=N, replicas=2, B=2_000,
                   capacities=([None] * 4 + [6_000] + [None] * (N - 5)
                               if self.CORRUPT else None))
        self.crashes = []    # (product, reference) work not committed

    @invariant()
    def headers_agree(self):
        got, want = self.cluster, self.reference
        assert got.ech.dirty.entries() == want.ech.dirty.entries()
        assert got.ech.location_version == want.ech.location_version
        assert got.ech.last_written == want.ech.last_written
        assert got.lost_objects == want.lost_objects
        assert got.unverified_ranks == want.unverified_ranks
        assert got.migrated_bytes == want.migrated_bytes

    @rule(k=st.integers(min_value=1, max_value=N))
    def resize(self, k):
        if self.CORRUPT or k >= self.cluster.replicas:
            self.both(lambda cl: cl.resize(k))

    @rule(budgets=st.lists(st.sampled_from([1, 3_000]), max_size=3),
          finish=st.booleans())
    def selective_reintegration(self, budgets, finish):
        """Budgeted slices (then, with *finish*, the rest): the tasks
        of the one planned pass, in its order."""
        cl = self.cluster
        planned = self.planned(cl.plan_selective_reintegration,
                               oracle.expected_selective)
        if planned is not None:
            plan, expected = planned
            assert oracle.moves_of(plan.tasks) == expected
        before = oracle.holders_of(cl)
        reports = []
        for budget in budgets + [None] * finish:
            report = self.both(
                lambda side: side.run_selective_reintegration(
                    budget_bytes=budget),
                summary=lambda r: (r.tasks, r.bytes_migrated, r.caught_up))
            if report is None:
                assert self.CORRUPT
                return
            reports.append(report)
        if planned is None:
            return
        tasks = [t for r in reports for t in r.tasks]
        assert tasks == plan.tasks[:len(tasks)]
        if reports and reports[-1].caught_up:
            assert tasks == plan.tasks
            assert (sum(r.bytes_migrated for r in reports)
                    == plan.total_bytes == oracle.bytes_of(expected))
            assert oracle.holders_of(cl) == oracle.holders_after(
                before, expected)

    @rule()
    def full_reintegration(self):
        cl = self.cluster
        planned = self.planned(cl.plan_full_reintegration,
                               oracle.expected_full)
        if planned is not None:
            self.check_rule(*planned, cl.run_full_reintegration)
            self.reference_follows(
                lambda ref: ref.run_full_reintegration())

    @precondition(lambda self: self.cluster.ech.is_full_power
                  and self.cluster.ech.dirty.is_empty()
                  and not self.cluster.ech.failed)
    @rule(new_p=st.integers(min_value=2, max_value=4))
    def set_primary_count(self, new_p):
        self.both(lambda cl: cl.set_primary_count(new_p))

    @precondition(lambda self: self.cluster.ech.num_active > 1)
    @rule(rank=RANKS, strict=st.booleans())
    def crash_server(self, rank, strict):
        cl = self.cluster
        if rank in cl.ech.failed:
            return
        if self.CORRUPT:
            self.crashes.append(self.crash(rank))
        # The paper's operating assumption (§III-B), as in
        # tests/property/test_cluster_stateful.py: a primary stays up,
        # r servers survive, and recovery lands before the next event.
        elif (rank > 1 and not cl.ech.failed
              and cl.ech.membership.is_active(rank)
              and cl.ech.num_active > cl.replicas):
            self.recover(self.crash(rank), strict)

    def crash(self, rank):
        """Crash *rank* on both sides: the same replicas are lost, in
        the same (landing) order."""
        works = (self.cluster.crash_server(rank),
                 self.reference.crash_server(rank))
        assert list(works[0].lost.items()) == list(works[1].lost.items())
        return works

    @precondition(lambda self: self.crashes)
    @rule(strict=st.booleans())
    def commit_crash_recovery(self, strict):
        self.recover(self.crashes.pop(0), strict)

    def recover(self, works, strict):
        cl = self.cluster
        work, ref_work = works
        expected, gone = oracle.expected_crash(cl, work)
        plan = oracle.plan_purely(cl, cl.crash_recovery_outlook, work)
        assert [t.oid for t in plan.tasks] == list(work.lost)
        assert [t.oid for t in plan.tasks if not t.from_servers] == gone
        if strict and gone:
            got = outcome(cl.commit_crash_recovery, work)
            assert got[0] == "raised" and issubclass(got[1], RuntimeError)
            assert got == outcome(self.reference.commit_crash_recovery,
                                  ref_work)
            return
        already_lost = list(cl.lost_objects)
        completed = self.check_rule(
            plan, expected,
            lambda: cl.commit_crash_recovery(work, strict=strict))
        self.reference_follows(
            lambda ref: ref.commit_crash_recovery(ref_work, strict=strict))
        if completed:
            assert cl.lost_objects == already_lost + gone
        else:
            # A degraded raise part-way (a full server) stops the
            # commit: only the losses met before it are recorded.
            assert cl.lost_objects[:len(already_lost)] == already_lost
            new = cl.lost_objects[len(already_lost):]
            assert new == gone[:len(new)]

    @precondition(lambda self: self.cluster.ech.failed)
    @rule(data=st.data())
    def repair_server(self, data):
        rank = data.draw(st.sampled_from(sorted(self.cluster.ech.failed)))
        self.both(lambda cl: cl.repair_server(rank))

    @precondition(lambda self: self.next_oid)
    @rule(data=st.data())
    def read_with_fallback(self, data):
        oid = data.draw(st.integers(0, self.next_oid - 1))
        cl = self.cluster
        rank = self.both(lambda side: side.read_with_fallback(oid))
        if rank is not None:
            assert rank[0] in cl.stored_locations(oid)
            assert cl.servers[rank[0]].is_on


class ElasticEnvelopeMachine(ElasticIndexMachine):
    """The same lifecycle inside the operating envelope, where every
    apply must leave fsck clean."""

    CORRUPT = False

    @invariant()
    def fsck_clean(self):
        report = check_cluster(self.cluster)
        assert report.clean, report.summary()


class OriginalIndexMachine(TableDifferential, RuleBasedStateMachine):
    CLUSTER = OriginalCHCluster

    def __init__(self):
        super().__init__()
        self.build(n=N, replicas=2, vnodes_per_server=50)

    @invariant()
    def membership_agrees(self):
        got, want = self.cluster, self.reference
        assert got.members == want.members
        assert got.migrated_bytes == want.migrated_bytes
        assert got.rereplicated_bytes == want.rereplicated_bytes

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
        self.reference_follows(lambda ref: ref.remove_server(rank))

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
            self.reference_follows(lambda ref: ref.add_server(rank))


class OriginalEnvelopeMachine(OriginalIndexMachine):
    CORRUPT = False

    @invariant()
    def fsck_clean(self):
        cl = self.cluster
        assert cl.verify_replication() == []
        for oid in cl.objects:
            assert (set(cl.stored_locations(oid))
                    == set(cl.placement(oid).servers))


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
