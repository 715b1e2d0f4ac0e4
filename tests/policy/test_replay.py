"""Object-level trace replay (small, fast configurations)."""

import numpy as np
import pytest

from repro.policy.replay import replay_policy
from repro.policy.resizer import PolicyConfig, simulate_policy
from repro.workloads.trace import LoadTrace


@pytest.fixture
def config():
    return PolicyConfig(n_max=10, per_server_bw=1e6,
                        dataset_bytes=100e6)


@pytest.fixture
def trace():
    # Busy, valley, busy — 10-second samples keep the object counts
    # (and thus the replay runtime) small.
    pattern = [8e6] * 10 + [0.5e6] * 20 + [8e6] * 10
    return LoadTrace(np.array(pattern), dt=10.0, write_fraction=0.5)


OBJ = 1 << 20  # 1 MiB objects keep the replay cheap


class TestReplayMechanics:
    def test_unknown_policy_rejected(self, trace, config):
        with pytest.raises(ValueError):
            replay_policy("greencht", trace, config)

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_bad_object_size_rejected(self, trace, config, bad):
        # 0 and -1 used to loop forever turning bytes into objects.
        for name in ("original-ch", "primary-selective"):
            with pytest.raises(ValueError, match="object_size must be"):
                replay_policy(name, trace, config, object_size=bad)

    def test_series_length_matches_trace(self, trace, config):
        rep = replay_policy("primary-selective", trace, config,
                            object_size=OBJ, preload_objects=50)
        assert len(rep.servers) == len(trace)

    def test_writes_materialised(self, trace, config):
        rep = replay_policy("primary-selective", trace, config,
                            object_size=OBJ, preload_objects=50)
        expected = trace.write_load.sum() * trace.dt / OBJ
        assert rep.objects_written == pytest.approx(expected, abs=2)

    def test_machine_hours_at_least_ideal(self, trace, config):
        for name in ("original-ch", "primary-full",
                     "primary-selective"):
            rep = replay_policy(name, trace, config,
                                object_size=OBJ, preload_objects=50)
            assert rep.relative_machine_hours >= 1.0 - 1e-9, name

    def test_elastic_floor_respected(self, trace, config):
        rep = replay_policy("primary-selective", trace, config,
                            object_size=OBJ, preload_objects=50)
        assert rep.servers.min() >= config.p

    def test_baseline_pays_rereplication(self, trace, config):
        rep = replay_policy("original-ch", trace, config,
                            object_size=OBJ, preload_objects=100)
        assert rep.rereplicated_bytes > 0

    def test_selective_migrates_least(self, trace, config):
        reps = {name: replay_policy(name, trace, config,
                                    object_size=OBJ,
                                    preload_objects=100)
                for name in ("original-ch", "primary-full",
                             "primary-selective")}
        assert (reps["primary-selective"].migrated_bytes
                < reps["primary-full"].migrated_bytes)
        assert (reps["primary-selective"].migrated_bytes
                < reps["original-ch"].migrated_bytes)


class TestCrossValidation:
    def test_fluid_and_replay_agree_on_selective(self, trace, config):
        """The fluid model and the object-level replay must land in
        the same regime for the paper's own system."""
        rep = replay_policy("primary-selective", trace, config,
                            object_size=OBJ, preload_objects=100)
        sim = simulate_policy("primary-selective", trace, config)
        assert rep.relative_machine_hours == pytest.approx(
            sim.relative_machine_hours, abs=0.35)

    def test_original_ch_starts_where_the_fluid_model_does(self, config):
        """Both levels run one loop: under a constant load below n_max
        the baseline opens at the ideal count, so nothing departs and
        nothing re-replicates."""
        flat = LoadTrace(np.full(12, 5e6), dt=10.0, write_fraction=0.5)
        rep = replay_policy("original-ch", flat, config,
                            object_size=OBJ, preload_objects=50)
        sim = simulate_policy("original-ch", flat, config)
        assert rep.rereplicated_bytes == 0
        np.testing.assert_array_equal(rep.servers, sim.servers)
        assert rep.servers.max() < config.n_max
