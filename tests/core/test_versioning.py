"""Membership tables and version history (§III-E-1)."""

import pytest

from repro.core.versioning import MembershipTable, VersionHistory


def table(version=1, n=5, active=None):
    ranks = tuple(range(1, n + 1))
    return MembershipTable(version=version, ranks=ranks,
                           active=frozenset(active or ranks))


class TestMembershipTable:
    def test_full_power(self):
        t = table()
        assert t.is_full_power
        assert t.num_active == 5

    def test_partial_power(self):
        t = table(active=[1, 2, 3])
        assert not t.is_full_power
        assert t.active_ranks() == [1, 2, 3]

    def test_is_active(self):
        t = table(active=[1, 2])
        assert t.is_active(1)
        assert not t.is_active(5)

    def test_states_rendering(self):
        t = table(active=[1])
        s = t.states()
        assert s[1] == "on" and s[2] == "off"

    def test_version_must_be_positive(self):
        with pytest.raises(ValueError):
            table(version=0)

    def test_unknown_active_rank_rejected(self):
        with pytest.raises(ValueError):
            MembershipTable(version=1, ranks=(1, 2),
                            active=frozenset([3]))

    def test_unsorted_ranks_rejected(self):
        with pytest.raises(ValueError):
            MembershipTable(version=1, ranks=(2, 1), active=frozenset([1]))

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            MembershipTable(version=1, ranks=(1, 1), active=frozenset([1]))

    def test_immutable(self):
        t = table()
        with pytest.raises(AttributeError):
            t.version = 2  # type: ignore[misc]


class TestVersionHistory:
    def test_starts_at_version_1_full_power(self):
        h = VersionHistory(range(1, 6))
        assert h.current_version == 1
        assert h.current.is_full_power

    def test_advance_increments_version(self):
        h = VersionHistory(range(1, 6))
        t = h.advance([1, 2, 3])
        assert t.version == 2
        assert h.current_version == 2

    def test_noop_advance_rejected(self):
        h = VersionHistory(range(1, 6))
        with pytest.raises(ValueError):
            h.advance([1, 2, 3, 4, 5])

    def test_history_is_append_only_lookup(self):
        h = VersionHistory(range(1, 6))
        h.advance([1, 2, 3])
        h.advance([1, 2, 3, 4])
        assert h.get(1).num_active == 5
        assert h.get(2).num_active == 3
        assert h.get(3).num_active == 4
        assert len(h) == 3

    def test_unknown_version_rejected(self):
        h = VersionHistory(range(1, 6))
        with pytest.raises(KeyError):
            h.get(9)
        with pytest.raises(KeyError):
            h.get(0)

    def test_num_active_helper(self):
        h = VersionHistory(range(1, 6))
        h.advance([1, 2])
        assert h.num_active(1) == 5
        assert h.num_active(2) == 2

    def test_iteration_in_version_order(self):
        h = VersionHistory(range(1, 4))
        h.advance([1, 2])
        assert [t.version for t in h] == [1, 2]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            VersionHistory([])
