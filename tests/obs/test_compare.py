"""The bench gate: timing shapes, classification against the
threshold, refused inputs, and the verdict's exit code."""

import json
from pathlib import Path

import pytest

from repro.obs.compare import (
    CompareError,
    ComparisonResult,
    _bench_timings,
    _diff_maps,
    compare_runs,
    render_compare,
)

REPORTS = Path(__file__).resolve().parents[2] / "benchmarks" / "reports"


def result(threshold=0.25):
    return ComparisonResult("A", "B", threshold)


def write_bench(path, **medians):
    """A baseline-shaped bench file with the given medians."""
    path.write_text(json.dumps(
        {"benches": {n: {"median_s": v} for n, v in medians.items()}}))
    return str(path)


class TestClassification:
    def test_wall_threshold_gates(self):
        r = result(threshold=0.25)
        _diff_maps(r,
                   {"fast": 1.0, "slow": 1.0, "same": 1.0, "near": 1.0},
                   {"fast": 0.5, "slow": 2.0, "same": 1.0, "near": 1.1})
        kinds = {d.name: d.kind for d in r.deltas}
        assert kinds == {"fast": "improvement", "slow": "regression",
                         "near": "drift"}    # equal values are skipped

    def test_added_and_removed(self):
        r = result()
        _diff_maps(r, {"gone": 1.0}, {"new": 1.0})
        kinds = {d.name: d.kind for d in r.deltas}
        assert kinds == {"gone": "removed", "new": "added"}
        assert r.ok

    def test_no_floor_on_bench_section(self):
        # Micro-bench medians (µs scale) gate like any other timing:
        # there is no absolute floor below which a change is ignored.
        r = result()
        _diff_maps(r, {"locate": 5e-6}, {"locate": 2e-5})
        assert r.deltas[0].kind == "regression"


class TestBenchTimings:
    def test_baseline_shape(self):
        doc = {"benches": {"bench_locate": {"median_s": 5e-6,
                                            "what": "hot path"}}}
        assert _bench_timings(doc, "b.json") == {"bench_locate": 5e-6}

    def test_timings_shape_normalises_names(self):
        doc = {"data": {"benchmarks/bench_perf_core.py::bench_locate": {
            "median_s": 6e-6, "mean_s": 7e-6, "rounds": 5}}}
        assert _bench_timings(doc, "t.json") == {"bench_locate": 6e-6}

    def test_mean_fallback(self):
        doc = {"data": {"b": {"mean_s": 3.0}}}
        assert _bench_timings(doc, "t.json") == {"b": 3.0}

    def test_non_bench_docs_rejected(self):
        assert _bench_timings({"name": "x", "report": "..."}, "x") is None
        assert _bench_timings([1, 2], "x") is None
        assert _bench_timings({"data": {}}, "x") is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -5.0, -1e-9])
    @pytest.mark.parametrize("shape", [
        lambda v: {"benches": {"bench_locate": {"median_s": v}}},
        lambda v: {"data": {"x.py::bench_locate": {"mean_s": v}}},
        lambda v: {"name": "r", "report": "", "data": {"bench_locate": v}},
    ], ids=["baseline", "timings", "emit_report"])
    def test_non_finite_or_negative_timing_raises(self, shape, bad):
        """NaN compares false with every threshold and a negative time
        reads as an improvement: either would pass the gate."""
        with pytest.raises(CompareError,
                           match=r"^fresh\.json: bench '[^']*bench_locate'"):
            _bench_timings(shape(bad), "fresh.json")

    @pytest.mark.parametrize("name, count", [
        ("perf_core_baseline.json", 20),
        ("engine_scale_baseline.json", 10),
    ])
    def test_committed_baselines_pass(self, name, count):
        path = REPORTS / name
        doc = json.loads(path.read_text())
        assert len(_bench_timings(doc, str(path))) == count


class TestArtifactDetection:
    def test_empty_directory_raises(self, tmp_path):
        # A run directory is not a bench file: nothing in it is read.
        with pytest.raises(CompareError):
            compare_runs(str(tmp_path), str(tmp_path))

    def test_missing_path_raises(self, tmp_path):
        a = write_bench(tmp_path / "a.json", b=1.0)
        with pytest.raises(CompareError, match="No such file"):
            compare_runs(a, str(tmp_path / "nope"))


class TestCompareRuns:
    def test_identical_files_are_ok(self, tmp_path):
        a = write_bench(tmp_path / "a.json", kernel=1.0)
        r = compare_runs(a, a)
        assert r.ok and r.exit_code == 0
        text = render_compare(r)
        assert "Verdict: OK" in text and "identical." in text

    def test_regression_fails_gate(self, tmp_path):
        a = write_bench(tmp_path / "a.json", kernel=1.0)
        b = write_bench(tmp_path / "b.json", kernel=2.0)
        r = compare_runs(a, b, threshold=0.25)
        assert r.exit_code == 1
        text = render_compare(r)
        assert "Verdict: REGRESSED" in text
        assert "+100.0%" in text

    def test_threshold_widens_gate(self, tmp_path):
        a = write_bench(tmp_path / "a.json", kernel=1.0)
        b = write_bench(tmp_path / "b.json", kernel=2.0)
        assert compare_runs(a, b, threshold=2.0).ok

    def test_no_common_artifacts_raises(self, tmp_path):
        # A file without a bench table (here a profile document) is
        # refused, not compared as something else.
        a = tmp_path / "a.json"
        a.write_text('{"kind": "repro.profile", "flat": {}}')
        b = write_bench(tmp_path / "b.json", y=1.0)
        with pytest.raises(CompareError, match="no bench timings"):
            compare_runs(str(a), b)

    def test_negative_threshold_rejected(self, tmp_path):
        a = write_bench(tmp_path / "a.json", x=1.0)
        with pytest.raises(ValueError, match="threshold"):
            compare_runs(a, a, threshold=-0.1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, tmp_path, threshold):
        # NaN compares false with every relative change and inf is
        # never exceeded: either would open the gate.
        a = write_bench(tmp_path / "a.json", x=1.0)
        b = write_bench(tmp_path / "b.json", x=50.0)
        with pytest.raises(ValueError, match="threshold"):
            compare_runs(a, b, threshold=threshold)

    def test_baseline_vs_timings_cross_shape(self, tmp_path):
        # The CI gate's exact setup: hand-written baseline vs the
        # pytest-benchmark timings dump, names joined on the bare name.
        base = tmp_path / "base.json"
        base.write_text(json.dumps(
            {"benches": {"bench_locate": {"median_s": 1.0}}}))
        timings = tmp_path / "timings.json"
        timings.write_text(json.dumps(
            {"data": {"benchmarks/x.py::bench_locate": {
                "median_s": 1.1, "mean_s": 1.2, "rounds": 3}}}))
        r = compare_runs(str(base), str(timings), threshold=0.25)
        assert r.ok
        assert {d.name for d in r.deltas} == {"bench_locate"}
