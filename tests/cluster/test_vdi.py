"""The VDI (virtual disk) layer."""

import pytest

from repro.cluster.cluster import ElasticCluster
from repro.cluster.vdi import VirtualDisk

MB = 1024 * 1024
CHUNK = 4 * MB


@pytest.fixture
def disk(elastic10):
    return VirtualDisk("test-vm", size_bytes=100 * CHUNK,
                       cluster=elastic10)


class TestGeometry:
    def test_chunk_count_rounds_up(self, elastic10):
        d = VirtualDisk("d", size_bytes=CHUNK + 1, cluster=elastic10)
        assert d.num_chunks == 2

    def test_oids_unique_within_disk(self, disk):
        oids = {disk.oid_for_chunk(i) for i in range(disk.num_chunks)}
        assert len(oids) == disk.num_chunks

    def test_oids_distinct_across_disks(self, elastic10):
        a = VirtualDisk("vm-a", 10 * CHUNK, elastic10)
        b = VirtualDisk("vm-b", 10 * CHUNK, elastic10)
        assert {a.oid_for_chunk(i) for i in range(10)}.isdisjoint(
            {b.oid_for_chunk(i) for i in range(10)})

    def test_chunk_out_of_range(self, disk):
        with pytest.raises(IndexError):
            disk.oid_for_chunk(disk.num_chunks)

    def test_validation(self, elastic10):
        with pytest.raises(ValueError):
            VirtualDisk("d", 0, elastic10)
        with pytest.raises(ValueError):
            VirtualDisk("d", 10, elastic10, object_size=0)


class TestRanges:
    def test_aligned_single_chunk(self, disk):
        ranges = list(disk.ranges(0, CHUNK))
        assert len(ranges) == 1
        assert ranges[0].offset_in_chunk == 0
        assert ranges[0].length == CHUNK

    def test_unaligned_spans_two_chunks(self, disk):
        ranges = list(disk.ranges(CHUNK - 100, 200))
        assert len(ranges) == 2
        assert ranges[0].length == 100
        assert ranges[1].offset_in_chunk == 0
        assert ranges[1].length == 100

    def test_lengths_sum(self, disk):
        total = sum(r.length for r in disk.ranges(123456, 10 * MB))
        assert total == 10 * MB

    def test_beyond_end_rejected(self, disk):
        with pytest.raises(ValueError):
            list(disk.ranges(disk.size_bytes - 10, 20))

    def test_negative_rejected(self, disk):
        with pytest.raises(ValueError):
            list(disk.ranges(-1, 10))


class TestIO:
    def test_write_allocates_chunks(self, disk):
        disk.write(0, 3 * CHUNK)
        assert disk.allocated_chunks == 3

    def test_write_stores_objects_in_cluster(self, disk):
        touched = disk.write(0, CHUNK)
        oid = touched[0].oid
        assert oid in disk.cluster.objects
        assert len(disk.cluster.stored_locations(oid)) == 2

    def test_partial_write_rewrites_whole_chunk(self, disk):
        touched = disk.write(100, 10)
        assert len(touched) == 1
        assert disk.cluster.objects.size(touched[0].oid) == CHUNK

    def test_read_hole_is_available_without_io(self, disk):
        before = len(disk.cluster.objects)
        results = disk.read(0, CHUNK)
        assert all(avail for _r, avail in results)
        assert len(disk.cluster.objects) == before

    def test_read_after_write(self, disk):
        disk.write(5 * CHUNK, CHUNK)
        results = disk.read(5 * CHUNK, CHUNK)
        assert all(avail for _r, avail in results)

    def test_reads_survive_resize(self, disk):
        disk.write(0, 10 * CHUNK)
        disk.cluster.resize(disk.cluster.min_active)
        assert all(avail for _r, avail in disk.read(0, 10 * CHUNK))

    def test_write_while_shrunk_is_dirty(self, disk):
        disk.cluster.resize(6)
        touched = disk.write(0, CHUNK)
        assert disk.cluster.ech.dirty.contains_oid(touched[0].oid)


class TestAmplification:
    def test_aligned_full_chunk(self, disk):
        # 4 MB logical -> 2 replicas of one 4 MB object.
        assert disk.write_amplification(0, CHUNK) == pytest.approx(2.0)

    def test_small_write_amplifies_hard(self, disk):
        amp = disk.write_amplification(0, 4096)
        assert amp == pytest.approx(2 * CHUNK / 4096)

    def test_describe(self, disk):
        assert "test-vm" in disk.describe()
