"""Figures 3/7: the throughput-dip experiment (small scale)."""

import pytest

from repro.experiments import run_three_phase, three_phase

SCALE = 0.15


@pytest.fixture(scope="module")
def results():
    return {mode: run_three_phase(mode, scale=SCALE)
            for mode in ("none", "original", "full", "selective")}


class TestPhases:
    def test_all_phases_complete(self, results):
        for mode, res in results.items():
            assert set(res.phase_ends) == {"phase1", "phase2", "phase3"}

    def test_phase2_is_rate_limited(self, results):
        res = results["none"]
        p1, p2 = res.phase_ends["phase1"], res.phase_ends["phase2"]
        mid = res.mean_throughput(p1 + 5, p2 - 5)
        assert mid == pytest.approx(20e6, rel=0.15)

    def test_peak_throughput_identical_across_modes(self, results):
        """§V-A: 'there is little difference in the peak IO throughput
        in the three cases'."""
        peaks = {m: max(r.throughput) for m, r in results.items()}
        base = peaks["none"]
        for mode, peak in peaks.items():
            # Modest slack: vnode sampling noise shifts the per-server
            # load fractions a few percent between cluster flavours.
            assert peak == pytest.approx(base, rel=0.10), mode


class TestFigure7Shape:
    def test_selective_recovers_faster_than_original(self, results):
        sel = results["selective"]
        orig = results["original"]
        t_sel = sel.recovery_time_after(sel.phase_ends["phase2"])
        t_orig = orig.recovery_time_after(orig.phase_ends["phase2"])
        assert t_sel < t_orig

    def test_selective_phase3_mean_beats_original(self, results):
        def phase3_mean(res):
            return res.mean_throughput(res.phase_ends["phase2"],
                                       res.phase_ends["phase3"])
        assert phase3_mean(results["selective"]) > \
            phase3_mean(results["original"])

    def test_full_between_selective_and_original(self, results):
        def phase3_mean(res):
            return res.mean_throughput(res.phase_ends["phase2"],
                                       res.phase_ends["phase3"])
        assert (phase3_mean(results["original"])
                <= phase3_mean(results["full"]) + 1e-6)
        assert (phase3_mean(results["full"])
                <= phase3_mean(results["selective"]) + 1e-6)

    def test_no_resizing_has_no_migration(self, results):
        res = results["none"]
        assert res.migrated_bytes == 0
        assert all(v == 0 for v in res.migration_rate)


class TestMigrationVolumes:
    def test_selective_moves_least(self, results):
        assert (results["selective"].migrated_bytes
                < results["full"].migrated_bytes
                < results["original"].migrated_bytes)

    def test_only_original_rereplicates(self, results):
        assert results["original"].rereplicated_bytes > 0
        for mode in ("none", "full", "selective"):
            assert results[mode].rereplicated_bytes == 0


class TestOptions:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_three_phase("bogus", scale=SCALE)

    def test_running_out_of_time_is_an_outcome(self, monkeypatch):
        whole = run_three_phase("selective", scale=SCALE)
        assert whole.finished and whole.unfinished == ()
        # Phase 2 alone needs ~19 s at this scale.
        monkeypatch.setattr(three_phase, "MAX_DURATION", 10.0)
        cut = run_three_phase("selective", scale=SCALE)
        assert not cut.finished
        assert cut.unfinished == ("phase2", "phase3")
        assert list(cut.phase_ends) == ["phase1"]
        assert cut.duration == 10.0 == cut.times[-1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("name", ["scale"])
    def test_non_finite_workload_rejected(self, name, bad):
        # nan used to tick through all 3 600 s moving nothing.
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            run_three_phase("none", **{name: bad})

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_bad_object_size_rejected(self, bad):
        # -1 used to loop forever turning bytes into objects, 0 divided
        # by zero and nan failed converting to an int.
        with pytest.raises(ValueError, match="object_size must be"):
            run_three_phase("selective", scale=SCALE, object_size=bad)
