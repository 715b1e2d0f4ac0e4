"""Each data-movement rule against the first-principles oracle, on
scenarios small enough to read (the generated version lives in
``test_holder_index_stateful.py``), plus the regressions this file's
oracle was written to catch."""

import pytest

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.fsck import check_cluster, check_holder_index
from repro.cluster.migration import addition_migration_plan
from repro.cluster.runtime import ClusterRuntime

from . import _movement_oracle as oracle
from .test_holder_index_stateful import (
    ElasticKeepsSurplus,
    ForgetsUnverifiedRecopies,
)

MB4 = 4 * 1024 * 1024


def shrink_write_grow(cluster=ElasticCluster):
    """200 objects at full power, 50 more on 6 of 10 servers, then
    back to 10: ranks 7-10 are unverified, 50 entries are dirty."""
    cl = cluster(n=10, replicas=2)
    for oid in range(200):
        cl.write(oid, MB4)
    cl.resize(6)
    for oid in range(200, 250):
        cl.write(oid, MB4)
    cl.resize(10)
    return cl


class TestEachRuleAgainstTheOracle:
    def test_full_reintegration(self):
        cl = shrink_write_grow()
        plan = oracle.plan_purely(cl, cl.plan_full_reintegration)
        expected = oracle.expected_full(cl)
        assert expected and plan.total_bytes > 0
        oracle.check_rule(cl, plan, expected, cl.run_full_reintegration)
        assert check_cluster(cl, expect_quiescent=True).clean

    def test_selective_reintegration(self):
        cl = shrink_write_grow()
        plan = oracle.plan_purely(cl, cl.plan_selective_reintegration)
        expected = oracle.expected_selective(cl)
        assert expected
        assert cl.selective_backlog_bytes() == plan.total_bytes
        oracle.check_rule(
            cl, plan, expected,
            lambda: cl.run_selective_reintegration().bytes_migrated)
        assert check_cluster(cl, expect_quiescent=True).clean

    def test_budgeted_pass_is_the_unbudgeted_one_in_slices(self):
        whole = shrink_write_grow().run_selective_reintegration()
        cl = shrink_write_grow()
        tasks, rounds = [], 0
        while True:
            report = cl.run_selective_reintegration(budget_bytes=3 * MB4)
            tasks += report.tasks
            rounds += 1
            if report.caught_up:
                break
        assert rounds > 1 and tasks == whole.tasks

    def test_crash_recovery(self):
        cl = shrink_write_grow()
        work = cl.crash_server(4)
        plan = oracle.plan_purely(cl, cl.crash_recovery_outlook, work)
        expected, gone = oracle.expected_crash(cl, work)
        assert expected and not gone
        assert [t.oid for t in plan.tasks] == list(work.lost)
        oracle.check_rule(cl, plan, expected,
                          lambda: cl.commit_crash_recovery(work))
        assert check_cluster(cl).clean

    def test_crash_with_no_survivor(self):
        cl = ElasticCluster(n=4, replicas=1)    # one primary holds it all
        for oid in range(40):
            cl.write(oid, MB4)
        work = cl.crash_server(1)
        assert len(work.lost) == 40
        expected, gone = oracle.expected_crash(cl, work)
        plan = cl.crash_recovery_outlook(work)
        assert gone == list(work.lost) and not expected
        assert plan.total_bytes == 0 and plan.involved_ranks() == ()
        assert all(not t.from_servers for t in plan.tasks)
        with pytest.raises(RuntimeError, match="lost every replica"):
            cl.commit_crash_recovery(work)
        assert cl.commit_crash_recovery(work, strict=False) == 0
        assert cl.lost_objects == gone

    def test_departure(self, loaded_original10):
        cl = loaded_original10
        plan = oracle.plan_purely(cl, cl.plan_departure, 10)
        expected = oracle.expected_departure(cl, 10)
        assert expected
        oracle.check_rule(cl, plan, expected, lambda: cl.remove_server(10))
        assert check_holder_index(cl) == []
        assert cl.verify_replication() == []

    def test_addition(self, loaded_original10):
        cl = loaded_original10
        cl.remove_server(10)
        cl.remove_server(9)
        batched = oracle.plan_purely(cl, cl.plan_addition, [9, 10])
        assert (oracle.moves_of(batched.tasks)
                == oracle.expected_addition(cl, [9, 10]))
        for rank in (9, 10):
            plan = oracle.plan_purely(cl, cl.plan_addition, [rank])
            expected = oracle.expected_addition(cl, [rank])
            assert expected
            oracle.check_rule(cl, plan, expected,
                              lambda: cl.add_server(rank))
        assert check_holder_index(cl) == []
        assert cl.verify_replication() == []


class TestOneMeaningOfNbytes:
    def test_task_nbytes_is_total_copy_traffic(self, loaded_original10):
        for plan in (loaded_original10.plan_departure(10),
                     shrink_write_grow().plan_full_reintegration(),
                     shrink_write_grow().plan_selective_reintegration()):
            assert plan.num_objects > 0
            for task in plan.tasks:
                assert task.nbytes == task.size * len(task.moved_to)
            assert plan.total_bytes == sum(t.nbytes for t in plan.tasks)
            assert (sum(plan.bytes_per_destination().values())
                    == plan.total_bytes)


class TestFailedPlanLeavesTheRingAlone:
    """``addition_migration_plan(cluster, [10, 5])`` used to add rank 10
    to the ring, raise on member 5 *before* its try/finally, and leave
    10 a ring member: powered off, empty, and a placement target."""

    @pytest.mark.parametrize("ranks, error", [
        ([10, 5], KeyError),        # second rank already a member
        ([10, 10], ValueError),     # the ring refuses the second add
    ])
    def test_bad_rank_after_a_good_one(self, loaded_original10, ranks,
                                       error):
        cl = loaded_original10
        cl.remove_server(10)
        members, generation = cl.members, cl.ring.generation
        before = oracle.snapshot(cl)
        with pytest.raises(error):
            addition_migration_plan(cl, ranks)
        assert cl.members == members == tuple(range(1, 10))
        assert cl.ring.generation == generation     # never touched
        assert oracle.snapshot(cl) == before
        assert not cl.servers[10].is_on
        assert check_holder_index(cl) == []
        assert cl.verify_replication() == []
        for obj in cl.catalog:      # nothing is placed on the absentee
            assert 10 not in cl.placement(obj.oid).servers

    def test_departure_of_a_non_member(self, loaded_original10):
        cl = loaded_original10
        generation = cl.ring.generation
        with pytest.raises(KeyError):
            cl.plan_departure(99)
        assert cl.ring.generation == generation

    def test_planners_restore_the_ring_when_placement_fails(self):
        cl = OriginalCHCluster(n=2, replicas=2, vnodes_per_server=20)
        cl.write(1, MB4)
        with pytest.raises(LookupError, match=r"\(oid 1\)"):
            cl.plan_departure(2)        # one server cannot hold r = 2
        assert cl.members == (1, 2)


class TestAWriteThenACrashLogTwoEntries:
    """The case the do/plan/size twins disagreed on: two live dirty
    entries for one object.  The pass moves it once; the old sizing
    counted it twice (and ``reintegrate_selective`` charged the larger
    number)."""

    def scenario(self):
        cl = ElasticCluster(n=8, replicas=2, B=2_000)
        cl.resize(3)
        cl.write(0, MB4)            # dirty at v2
        cl.fail_server(3)           # holds object 0: dirty again at v3
        cl.resize(4)
        assert [e.oid for e in cl.ech.dirty.entries()] == [0, 0]
        return cl

    def test_plan_counts_the_object_once(self):
        cl = self.scenario()
        plan = cl.plan_selective_reintegration()
        assert plan.actionable == 2 and plan.total_bytes == MB4
        assert oracle.moves_of(plan.tasks) == oracle.expected_selective(cl)
        assert cl.run_selective_reintegration().bytes_migrated == MB4

    def test_runtime_charges_what_the_pass_moved(self):
        flow = ClusterRuntime(self.scenario(), dt=1.0) \
            .reintegrate_selective(50e6)
        assert flow.total_bytes == MB4


class TestSeededMutants:
    """The two mutants the generated machines kill, pinned."""

    def test_full_must_recopy_onto_unverified_ranks(self):
        cl = shrink_write_grow(ForgetsUnverifiedRecopies)
        assert (oracle.moves_of(cl.plan_full_reintegration().tasks)
                != oracle.expected_full(cl))
        assert (cl.plan_full_reintegration().total_bytes
                < oracle.bytes_of(oracle.expected_full(cl)))

    def test_applier_must_drop_surplus(self):
        cl = shrink_write_grow(ElasticKeepsSurplus)
        plan = cl.plan_full_reintegration()
        with pytest.raises(AssertionError):
            oracle.check_rule(cl, plan, oracle.expected_full(cl),
                              cl.run_full_reintegration)
