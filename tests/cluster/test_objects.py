"""Object headers and the object table.

A header is the object's size, kept by the cluster's
:class:`~repro.cluster.objects.ObjectTable`, plus the version it was
last written in and its dirty bit (§III-E-2), kept once by the
placement layer (``ech.location_version`` and ``ech.is_dirty``).
"""

import pytest

from repro.cluster import ElasticCluster, ObjectTable, StorageServer
from repro.cluster.objects import DEFAULT_OBJECT_SIZE


def table(n=3):
    return ObjectTable({r: StorageServer(r) for r in range(1, n + 1)})


class TestDataObject:
    def test_defaults(self):
        cl = ElasticCluster(n=4, replicas=2)
        cl.write(1)
        assert cl.objects.size(1) == DEFAULT_OBJECT_SIZE == 4 * 1024 * 1024
        assert cl.ech.location_version[1] == 1
        assert not cl.ech.is_dirty(1)

    def test_touch_advances_header(self):
        cl = ElasticCluster(n=10, replicas=2)
        cl.write(1, 10)
        cl.resize(6)
        cl.write(1, 20)
        assert cl.ech.location_version[1] == 2 and cl.ech.is_dirty(1)
        assert cl.objects.size(1) == 20
        # The pass that moves the object advances the one header
        # version there is; no second copy is left behind at v2.
        cl.resize(10)
        cl.run_selective_reintegration()
        assert cl.ech.location_version[1] == 3 and not cl.ech.is_dirty(1)


class TestObjectCatalog:
    def test_create(self):
        objects = table()
        objects.write(1, 100, [1, 2])
        assert len(objects) == 1
        assert objects.size(1) == 100
        assert 1 in objects and 2 not in objects

    def test_touch_existing(self):
        objects = table()
        objects.write(1, 100, [1, 2])
        objects.write(1, 100, [2, 3])
        assert len(objects) == 1
        assert objects.holders(1) == (2, 3)

    def test_resize_adjusts_total(self):
        objects = table()
        objects.write(1, 100, [1, 2])
        objects.write(1, 250, [1, 2])
        assert objects.size(1) == 250
        assert objects.bytes_per_rank() == {1: 250, 2: 250, 3: 0}

    def test_get_and_getitem(self):
        objects = table()
        objects.write(7, 10, [1])
        assert objects.size(7) == 10
        assert objects.holders(8) == ()
        with pytest.raises(KeyError):
            objects.size(8)

    def test_dirty_oids(self):
        # The dirty bit is read from the dirty table, which a full-power
        # rewrite of a still-dirty object does not clear.
        cl = ElasticCluster(n=10, replicas=2)
        cl.write(2, 10)
        cl.resize(6)
        cl.write(1, 10)
        cl.resize(10)
        cl.write(1, 10)
        assert [oid for oid in cl.objects if cl.ech.is_dirty(oid)] == [1]

    def test_size_of_oracle(self):
        # Re-integration sizes a move by the object's header.
        cl = ElasticCluster(n=10, replicas=2)
        cl.resize(6)
        for oid in range(50):
            cl.write(oid, 100 + oid)
        cl.resize(10)
        report = cl.run_selective_reintegration()
        assert report.tasks
        assert all(t.size == 100 + t.oid for t in report.tasks)

    def test_iteration(self):
        objects = table()
        for oid in (3, 1, 4, 0, 2):
            objects.write(oid, 10, [1])
        objects.write(1, 20, [2])
        assert list(objects) == [3, 1, 4, 0, 2]
        assert list(objects.items()) == [(3, 10), (1, 20), (4, 10),
                                         (0, 10), (2, 10)]
