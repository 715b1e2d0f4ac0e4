"""Algorithm 2 — selective data re-integration (§III-E-3)."""

import pytest

from repro.core.elastic import ElasticConsistentHash
from repro.core.reintegration import ReintegrationEngine


def shrink_write_grow(n=10, write_oids=range(100), shrink_to=5, grow_to=10):
    ech = ElasticConsistentHash(n=n, replicas=2)
    ech.set_active(shrink_to)
    for oid in write_oids:
        ech.record_write(oid)
    ech.set_active(grow_to)
    return ech


class TestBasicFlow:
    def test_full_power_drains_table(self):
        ech = shrink_write_grow()
        engine = ReintegrationEngine(ech)
        report = engine.step()
        assert report.caught_up
        assert report.entries_processed == 100
        assert report.entries_removed == 100
        assert ech.dirty.is_empty()

    def test_migrations_match_placement_diffs(self):
        ech = shrink_write_grow()
        engine = ReintegrationEngine(ech)
        report = engine.step()
        for task in report.tasks:
            old = ech.locate(task.oid, task.entry_version).servers
            new = ech.locate(task.oid, task.target_version).servers
            assert set(task.moved_to) == set(new) - set(old)
            assert set(task.dropped_from) == set(old) - set(new)

    def test_unmoved_objects_produce_no_tasks(self):
        ech = shrink_write_grow()
        engine = ReintegrationEngine(ech)
        report = engine.step()
        # Objects whose placement did not change are processed but not
        # migrated.
        assert report.entries_migrated < report.entries_processed

    def test_bytes_counted_per_receiving_server(self):
        ech = shrink_write_grow()
        engine = ReintegrationEngine(ech, object_size=lambda oid: 100)
        report = engine.step()
        expected = sum(len(t.moved_to) * 100 for t in report.tasks)
        assert report.bytes_migrated == expected

    def test_callback_invoked_per_task(self):
        ech = shrink_write_grow()
        seen = []
        engine = ReintegrationEngine(ech, on_migrate=seen.append)
        report = engine.step()
        assert seen == report.tasks


class TestPartialPower:
    def test_entries_kept_below_full_power(self):
        ech = shrink_write_grow(grow_to=8)
        engine = ReintegrationEngine(ech)
        report = engine.step()
        assert report.caught_up
        assert report.entries_removed == 0
        assert len(ech.dirty) == 100  # LRANGE path: nothing popped

    def test_no_migration_when_not_grown(self):
        """Line 6: act only when the current version has *more* active
        servers."""
        ech = ElasticConsistentHash(n=10, replicas=2)
        ech.set_active(5)
        for oid in range(50):
            ech.record_write(oid)
        ech.set_active(4)  # shrank further
        engine = ReintegrationEngine(ech)
        report = engine.step()
        assert report.entries_migrated == 0
        assert report.caught_up

    def test_second_growth_restarts_scan(self):
        ech = shrink_write_grow(grow_to=7)
        engine = ReintegrationEngine(ech)
        first = engine.step()
        assert first.caught_up
        ech.set_active(10)
        second = engine.step()
        # Restart processed every entry again (restart_dirty_entry).
        assert second.entries_processed == 100
        assert ech.dirty.is_empty()


class TestStaleness:
    def test_stale_entry_skipped(self):
        ech = ElasticConsistentHash(n=10, replicas=2)
        ech.set_active(5)
        ech.record_write(42)          # version 2
        ech.set_active(6)
        ech.record_write(42)          # version 3 — supersedes v2 entry
        ech.set_active(10)
        engine = ReintegrationEngine(ech)
        report = engine.step()
        assert report.entries_stale == 1
        # Only the v3 entry may produce migration traffic.
        assert all(t.entry_version == 3 for t in report.tasks)
        assert ech.dirty.is_empty()


class TestBudget:
    def test_budget_pauses_and_resumes(self):
        ech = shrink_write_grow()
        engine = ReintegrationEngine(ech, object_size=lambda oid: 1000)
        total = ReintegrationEngine(
            shrink_write_grow(), object_size=lambda oid: 1000
        ).step().bytes_migrated
        moved = 0
        rounds = 0
        while True:
            rep = engine.step(budget_bytes=5_000)
            moved += rep.bytes_migrated
            rounds += 1
            if rep.caught_up:
                break
            assert rep.bytes_migrated >= 5_000  # budget actually bites
        assert moved == total
        assert rounds > 1


class TestPendingBytes:
    def test_total_pending_matches_actual(self):
        ech = shrink_write_grow()
        engine = ReintegrationEngine(ech)
        predicted = engine.total_pending_bytes()
        actual = engine.step().bytes_migrated
        assert predicted == actual

    def test_zero_when_nothing_to_do(self):
        ech = ElasticConsistentHash(n=10, replicas=2)
        for oid in range(10):
            ech.record_write(oid)
        assert ReintegrationEngine(ech).total_pending_bytes() == 0
