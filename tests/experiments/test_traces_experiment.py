"""Figures 8/9 and Tables I/II: the trace experiment wrapper."""

import pytest

from repro.experiments import run_trace_analysis
from repro.experiments.traces import FIGURE_N_MAX


@pytest.fixture(scope="module")
def cca():
    return run_trace_analysis("CC-a")


@pytest.fixture(scope="module")
def ccb():
    return run_trace_analysis("CC-b")


class TestTable1:
    def test_cc_a_row(self, cca):
        assert cca.spec.machines == 100
        assert cca.spec.length_days == pytest.approx(30.0)
        assert cca.trace.stats()["total_bytes"] / 1e12 == pytest.approx(
            69.0, abs=0.5)

    def test_cc_b_row(self, ccb):
        assert ccb.spec.machines == 300
        assert ccb.trace.stats()["total_bytes"] / 1e12 == pytest.approx(
            473.0, abs=2)


class TestTable2:
    def test_ordering_holds_on_both_traces(self, cca, ccb):
        """The paper's Table II ordering:
        selective < full < original, on both traces."""
        for exp in (cca, ccb):
            row = exp.table2_row()
            assert (row["primary-selective"] < row["primary-full"]
                    < row["original-ch"])

    def test_ratios_in_paper_band(self, cca, ccb):
        """Paper values: CC-a 1.32/1.24/1.21, CC-b 1.51/1.37/1.33.
        The simulator must land in the same regime (1.0-2.2)."""
        for exp in (cca, ccb):
            for v in exp.table2_row().values():
                assert 1.0 <= v < 2.2

    def test_ccb_original_worse_than_cca_original(self, cca, ccb):
        assert (ccb.table2_row()["original-ch"]
                > cca.table2_row()["original-ch"])


class TestFigureSeries:
    def test_window_has_four_curves(self, cca):
        series = cca.figure_series()
        assert set(series) == {"ideal", "original-ch", "primary-full",
                               "primary-selective"}
        assert {len(v) for v in series.values()} == {250}

    def test_elastic_floors_at_primaries(self, cca):
        series = cca.analysis.series()
        p = cca.analysis.config.p
        assert series["primary-selective"].min() == p
        assert series["primary-full"].min() == p

    def test_ideal_dips_below_elastic_floor(self, cca):
        series = cca.analysis.series()
        assert series["ideal"].min() < cca.analysis.config.p

    def test_n_max_matches_figure_axis(self, cca, ccb):
        assert cca.analysis.config.n_max == FIGURE_N_MAX["CC-a"] == 50
        assert ccb.analysis.config.n_max == FIGURE_N_MAX["CC-b"] == 180


class TestOptions:
    def test_unknown_trace_rejected(self):
        with pytest.raises(ValueError):
            run_trace_analysis("CC-z")

    def test_seed_override_changes_trace(self):
        a = run_trace_analysis("CC-a", seed=11)
        b = run_trace_analysis("CC-a", seed=12)
        assert not (a.trace.load == b.trace.load).all()
