"""StorageServer: power and capacity; what a rank holds, as the object
table keeps it."""

import pytest

from repro.cluster import (CapacityExceeded, ObjectTable, PowerState,
                           StorageServer)


def table_of(srv):
    """An object table over the one server *srv*."""
    return ObjectTable({srv.rank: srv})


class TestPower:
    def test_starts_on(self):
        assert StorageServer(1).is_on

    def test_power_cycle(self):
        srv = StorageServer(1)
        srv.power_off()
        assert srv.state is PowerState.OFF
        srv.power_on()
        assert srv.is_on

    def test_data_survives_power_off(self):
        """The elastic design's key property (§II-C)."""
        srv = StorageServer(1)
        table = table_of(srv)
        table.store(42, 100, [1])
        srv.power_off()
        assert table.holders(42) == (1,)
        assert table.bytes_per_rank() == {1: 100}

    def test_write_to_off_server_rejected(self):
        srv = StorageServer(1)
        table = table_of(srv)
        srv.power_off()
        with pytest.raises(RuntimeError, match="powered-off server 1"):
            table.store(1, 10, [1])


class TestReplicaMap:
    def test_store_and_query(self):
        table = table_of(StorageServer(1))
        table.store(1, 100, [1])
        assert table.holders(1) == (1,)
        assert table.replicas_on(1) == [(1, 100)]
        assert table.replicas_per_rank() == {1: 1}

    def test_overwrite_replaces_size(self):
        table = table_of(StorageServer(1))
        table.store(1, 100, [1])
        table.store(1, 300, [1])
        assert table.bytes_per_rank() == {1: 300}
        assert table.replicas_per_rank() == {1: 1}

    def test_drop(self):
        table = table_of(StorageServer(1))
        table.store(1, 100, [1])
        assert table.drop(1, 1) == 100
        assert table.bytes_per_rank() == {1: 0}
        assert table.holders(1) == ()

    def test_drop_missing_is_zero(self):
        assert table_of(StorageServer(1)).drop(9, 1) == 0

    def test_drop_allowed_while_off(self):
        srv = StorageServer(1)
        table = table_of(srv)
        table.store(1, 100, [1])
        srv.power_off()
        assert table.drop(1, 1) == 100


class TestCapacity:
    def test_enforced(self):
        table = table_of(StorageServer(1, capacity_bytes=150))
        table.store(1, 100, [1])
        with pytest.raises(CapacityExceeded):
            table.store(2, 100, [1])

    def test_overwrite_counts_delta(self):
        table = table_of(StorageServer(1, capacity_bytes=150))
        table.store(1, 100, [1])
        table.store(1, 140, [1])  # replaces, fits

    def test_unbounded_by_default(self):
        srv = StorageServer(1)
        table_of(srv).store(1, 10**15, [1])
        assert srv.capacity_bytes is None

    def test_free_and_utilisation(self):
        # What is left is what the capacity minus the used bytes allows.
        table = table_of(StorageServer(1, capacity_bytes=200))
        table.store(1, 50, [1])
        with pytest.raises(CapacityExceeded, match="201 > 200"):
            table.store(2, 151, [1])
        table.store(2, 150, [1])
        assert table.bytes_per_rank() == {1: 200}


class TestValidation:
    def test_rank_positive(self):
        with pytest.raises(ValueError):
            StorageServer(0)

    def test_repr_mentions_state(self):
        assert "on" in repr(StorageServer(3))
