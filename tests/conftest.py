"""Shared fixtures: the paper's reference cluster shapes, seeded
generators, and small object populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.core.elastic import ElasticConsistentHash
from repro.hashring.ring import HashRing

MB4 = 4 * 1024 * 1024


@pytest.fixture
def rng():
    return np.random.default_rng(20170529)  # IPDPS 2017


@pytest.fixture
def ech10():
    """The paper's testbed shape: 10 servers, 2-way replication,
    2 primaries."""
    return ElasticConsistentHash(n=10, replicas=2, B=10_000)


@pytest.fixture
def elastic10():
    return ElasticCluster(n=10, replicas=2, B=10_000)


@pytest.fixture
def original10():
    return OriginalCHCluster(n=10, replicas=2, vnodes_per_server=200)


@pytest.fixture
def loaded_elastic10(elastic10):
    """10-server elastic cluster with 1,000 4 MB objects written at
    full power."""
    for oid in range(1_000):
        elastic10.write(oid, MB4)
    return elastic10


@pytest.fixture
def loaded_original10(original10):
    for oid in range(1_000):
        original10.write(oid, MB4)
    return original10


@pytest.fixture
def uniform_ring():
    return HashRing(dict.fromkeys(range(1, 11), 100))
