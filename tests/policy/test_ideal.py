"""The ideal resizing oracle."""

import numpy as np
import pytest

from repro.policy.ideal import ideal_servers


class TestIdealServers:
    def test_ceil_semantics(self):
        load = np.array([0.0, 1.0, 99.0, 100.0, 101.0])
        servers = ideal_servers(load, per_server_bw=100.0, n_max=10)
        assert list(servers) == [1, 1, 1, 1, 2]

    def test_clamped_to_n_max(self):
        servers = ideal_servers(np.array([1e9]), 10.0, n_max=5)
        assert servers[0] == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_servers(np.array([1.0]), 0.0, 5)
        with pytest.raises(ValueError):
            ideal_servers(np.array([1.0]), 1.0, 0)
