"""StorageServer: power, replica map, capacity."""

import pytest

from repro.cluster import CapacityExceeded, PowerState, StorageServer


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
        srv.store_replica(42, 100)
        srv.power_off()
        assert srv.has_replica(42)
        assert srv.used_bytes == 100

    def test_write_to_off_server_rejected(self):
        srv = StorageServer(1)
        srv.power_off()
        with pytest.raises(RuntimeError):
            srv.store_replica(1, 10)


class TestReplicaMap:
    def test_store_and_query(self):
        srv = StorageServer(1)
        srv.store_replica(1, 100)
        assert srv.has_replica(1)
        assert srv.replica_size(1) == 100
        assert srv.num_replicas == 1
        assert list(srv.replicas()) == [1]

    def test_overwrite_replaces_size(self):
        srv = StorageServer(1)
        srv.store_replica(1, 100)
        srv.store_replica(1, 300)
        assert srv.used_bytes == 300
        assert srv.num_replicas == 1

    def test_drop(self):
        srv = StorageServer(1)
        srv.store_replica(1, 100)
        assert srv.drop_replica(1) == 100
        assert srv.used_bytes == 0
        assert not srv.has_replica(1)

    def test_drop_missing_is_zero(self):
        assert StorageServer(1).drop_replica(9) == 0

    def test_drop_allowed_while_off(self):
        srv = StorageServer(1)
        srv.store_replica(1, 100)
        srv.power_off()
        assert srv.drop_replica(1) == 100


class TestCapacity:
    def test_enforced(self):
        srv = StorageServer(1, capacity_bytes=150)
        srv.store_replica(1, 100)
        with pytest.raises(CapacityExceeded):
            srv.store_replica(2, 100)

    def test_overwrite_counts_delta(self):
        srv = StorageServer(1, capacity_bytes=150)
        srv.store_replica(1, 100)
        srv.store_replica(1, 140)  # replaces, fits

    def test_unbounded_by_default(self):
        srv = StorageServer(1)
        srv.store_replica(1, 10**15)
        assert srv.free_bytes is None
        assert srv.utilisation() is None

    def test_free_and_utilisation(self):
        srv = StorageServer(1, capacity_bytes=200)
        srv.store_replica(1, 50)
        assert srv.free_bytes == 150
        assert srv.utilisation() == pytest.approx(0.25)


class TestValidation:
    def test_rank_positive(self):
        with pytest.raises(ValueError):
            StorageServer(0)

    def test_repr_mentions_state(self):
        assert "on" in repr(StorageServer(3))
