"""Run-vs-run comparison: classification, thresholds, artifact
detection, and the regression gate's exit code."""

import json

import pytest

from repro.obs.compare import (
    CompareError,
    ComparisonResult,
    _bench_timings,
    _diff_maps,
    _run_artifacts,
    compare_runs,
    render_compare,
)


def result(threshold=0.25, min_seconds=1e-4, strict=False):
    return ComparisonResult("A", "B", threshold, min_seconds, strict)


def write_profile(path, flat):
    """Minimal valid repro.profile document with the given flat table."""
    total = sum(v for v in flat.values())
    doc = {
        "kind": "repro.profile", "version": 1, "command": "x",
        "total_wall_s": total, "total_sim_s": 0.0, "unattributed_s": 0.0,
        "root": {"name": "run", "calls": 1, "wall_s": total,
                 "self_s": 0.0, "sim_s": 0.0,
                 "children": [
                     {"name": n, "calls": 1, "wall_s": v, "self_s": v,
                      "sim_s": 0.0, "children": []}
                     for n, v in sorted(flat.items())]},
        "flat": {n: {"calls": 1, "wall_s": v, "self_s": v, "sim_s": 0.0}
                 for n, v in flat.items()},
    }
    path.write_text(json.dumps(doc))
    return path


class TestClassification:
    def test_wall_threshold_gates(self):
        r = result(threshold=0.25)
        _diff_maps(r, "bench", "s",
                   {"fast": 1.0, "slow": 1.0, "same": 1.0, "near": 1.0},
                   {"fast": 0.5, "slow": 2.0, "same": 1.0, "near": 1.1},
                   wall=True)
        kinds = {d.name: d.kind for d in r.deltas}
        assert kinds == {"fast": "improvement", "slow": "regression",
                         "near": "drift"}    # equal values are skipped

    def test_sim_differences_are_drift(self):
        r = result()
        _diff_maps(r, "metrics", "", {"x": 1.0}, {"x": 99.0}, wall=False)
        assert [d.kind for d in r.deltas] == ["drift"]
        assert r.ok

    def test_strict_promotes_drift(self):
        r = result(strict=True)
        _diff_maps(r, "metrics", "", {"x": 1.0}, {"x": 2.0}, wall=False)
        assert not r.ok
        assert r.exit_code == 1

    def test_added_and_removed(self):
        r = result()
        _diff_maps(r, "bench", "s", {"gone": 1.0}, {"new": 1.0},
                   wall=True)
        kinds = {d.name: d.kind for d in r.deltas}
        assert kinds == {"gone": "removed", "new": "added"}

    def test_floor_drops_jitter_pairs(self):
        # Both sides under the floor: ignored entirely, even though the
        # relative change is huge.
        r = result()
        _diff_maps(r, "profile", "s",
                   {"tiny": 1e-6, "big": 1.0},
                   {"tiny": 9e-6, "big": 2.0},
                   wall=True, floor=1e-4)
        assert [d.name for d in r.deltas] == ["big"]
        assert r.deltas[0].kind == "regression"

    def test_no_floor_on_bench_section(self):
        # Micro-bench medians (µs scale) must still gate: _diff_maps is
        # called without a floor for the bench section.
        r = result()
        _diff_maps(r, "bench", "s", {"locate": 5e-6}, {"locate": 2e-5},
                   wall=True)
        assert r.deltas[0].kind == "regression"


class TestBenchTimings:
    def test_baseline_shape(self):
        doc = {"benches": {"bench_locate": {"median_s": 5e-6,
                                            "what": "hot path"}}}
        assert _bench_timings(doc) == {"bench_locate": 5e-6}

    def test_timings_shape_normalises_names(self):
        doc = {"data": {"benchmarks/bench_perf_core.py::bench_locate": {
            "median_s": 6e-6, "mean_s": 7e-6, "rounds": 5}}}
        assert _bench_timings(doc) == {"bench_locate": 6e-6}

    def test_mean_fallback(self):
        doc = {"data": {"b": {"mean_s": 3.0}}}
        assert _bench_timings(doc) == {"b": 3.0}

    def test_non_bench_docs_rejected(self):
        assert _bench_timings({"name": "x", "report": "..."}) is None
        assert _bench_timings([1, 2]) is None
        assert _bench_timings({"data": {}}) is None


class TestArtifactDetection:
    def test_run_directory(self, tmp_path):
        (tmp_path / "metrics.json").write_text('{"events": 3}')
        (tmp_path / "trace.jsonl").write_text("")
        write_profile(tmp_path / "profile.json", {"a": 1.0})
        (tmp_path / "perf.json").write_text(
            '{"benches": {"b": {"median_s": 1.0}}}')
        arts = _run_artifacts(str(tmp_path))
        assert set(arts) == {"metrics", "trace", "profile", "bench"}

    def test_standalone_files(self, tmp_path):
        prof = write_profile(tmp_path / "p.json", {"a": 1.0})
        assert _run_artifacts(str(prof)) == {"profile": str(prof)}
        bench = tmp_path / "b.json"
        bench.write_text('{"benches": {"x": {"median_s": 1.0}}}')
        assert _run_artifacts(str(bench)) == {"bench": str(bench)}
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        assert _run_artifacts(str(trace)) == {"trace": str(trace)}

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CompareError, match="no comparable artifacts"):
            _run_artifacts(str(tmp_path))

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(CompareError, match="no such file"):
            _run_artifacts(str(tmp_path / "nope"))


class TestCompareRuns:
    def test_same_profile_is_ok(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"kernel": 1.0})
        b = write_profile(tmp_path / "b.json", {"kernel": 1.0})
        r = compare_runs(str(a), str(b))
        assert r.ok and r.exit_code == 0
        assert "Verdict: OK" in render_compare(r)
        assert "identical." in render_compare(r)

    def test_profile_regression_fails_gate(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"kernel": 1.0})
        b = write_profile(tmp_path / "b.json", {"kernel": 2.0})
        r = compare_runs(str(a), str(b), threshold=0.25)
        assert r.exit_code == 1
        text = render_compare(r)
        assert "Verdict: REGRESSED" in text
        assert "+100.0%" in text

    def test_threshold_widens_gate(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"kernel": 1.0})
        b = write_profile(tmp_path / "b.json", {"kernel": 2.0})
        assert compare_runs(str(a), str(b), threshold=2.0).ok

    def test_one_sided_artifacts_skipped_with_note(self, tmp_path):
        da, db = tmp_path / "a", tmp_path / "b"
        da.mkdir(); db.mkdir()           # noqa: E702
        (da / "metrics.json").write_text('{"events": 1}')
        (db / "metrics.json").write_text('{"events": 1}')
        write_profile(da / "profile.json", {"x": 1.0})
        r = compare_runs(str(da), str(db))
        assert r.ok
        assert any("profile" in note and "only present in A" in note
                   for note in r.skipped)

    def test_no_common_artifacts_raises(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        b = tmp_path / "b.json"
        b.write_text('{"benches": {"y": {"median_s": 1.0}}}')
        with pytest.raises(CompareError, match="no artifact kind"):
            compare_runs(str(a), str(b))

    def test_negative_threshold_rejected(self, tmp_path):
        a = write_profile(tmp_path / "a.json", {"x": 1.0})
        with pytest.raises(ValueError, match="threshold"):
            compare_runs(str(a), str(a), threshold=-0.1)

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


class TestAnalyticsComparison:
    @staticmethod
    def analytics(tmp_path, name, sojourn):
        from repro.obs.analytics import build_analytics, dump_analytics
        events = [
            {"kind": "flow.start", "t": 0.0, "name": "client",
             "span_id": 1},
            {"kind": "flow.finish", "t": sojourn, "name": "client",
             "span_id": 1, "nbytes": 100.0},
        ]
        path = tmp_path / name
        dump_analytics(build_analytics(events, source="t"), str(path))
        return path

    def test_identical_analytics_is_ok(self, tmp_path):
        a = self.analytics(tmp_path, "a.json", 3.0)
        b = self.analytics(tmp_path, "b.json", 3.0)
        r = compare_runs(str(a), str(b))
        assert r.ok
        assert "analytics" in r.sections

    def test_run_dir_autodetects_analytics(self, tmp_path):
        da, db = tmp_path / "a", tmp_path / "b"
        da.mkdir(); db.mkdir()           # noqa: E702
        self.analytics(da, "analytics.json", 3.0)
        self.analytics(db, "analytics.json", 5.0)
        arts = _run_artifacts(str(da))
        assert arts.get("analytics", "").endswith("analytics.json")
        r = compare_runs(str(da), str(db))
        # sim-derived differences classify as drift: ok by default...
        assert r.ok
        assert any(d.kind == "drift" for d in r.deltas)

    def test_strict_gates_analytics_drift(self, tmp_path):
        a = self.analytics(tmp_path, "a.json", 3.0)
        b = self.analytics(tmp_path, "b.json", 5.0)
        r = compare_runs(str(a), str(b), strict=True)
        assert not r.ok and r.exit_code == 1
        text = render_compare(r)
        assert "Analytics" in text

    def test_rollup_detected_in_run_dir(self, tmp_path):
        from repro.obs.analytics import (dump_analytics, load_analytics,
                                         merge_analytics)
        da, db = tmp_path / "a", tmp_path / "b"
        da.mkdir(); db.mkdir()           # noqa: E702
        doc = load_analytics(str(self.analytics(tmp_path, "t.json", 3.0)))
        for d in (da, db):
            dump_analytics(merge_analytics({"t0": doc}),
                           str(d / "analytics_rollup.json"))
        r = compare_runs(str(da), str(db))
        assert r.ok and "analytics" in r.sections

    def test_corrupt_analytics_raises_compare_error(self, tmp_path):
        a = self.analytics(tmp_path, "a.json", 3.0)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "analytics.json").write_text('{"kind": "repro.analytics"}')
        with pytest.raises(CompareError):
            compare_runs(str(a), str(bad / "analytics.json"))


class TestSpanDistributions:
    def test_p50_is_the_one_percentile(self, tmp_path):
        """Regression: ``compare``'s span rows took the *upper* median
        (``ds[len(ds) // 2]``) while ``repro report`` and ``repro
        timeline`` use nearest-rank — four flows lasting 3, 3, 8 and
        32 s compared as p50 = 8 here and read 3 there."""
        from repro.obs.compare import _span_distributions
        from repro.obs.stats import percentile

        durations = [3.0, 32.0, 3.0, 8.0]
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, d in enumerate(durations):
                for ev in ({"kind": "span.begin", "t": float(i),
                            "name": "flow", "span_id": i},
                           {"kind": "span.end", "t": i + d, "name": "flow",
                            "span_id": i, "duration": d}):
                    fh.write(json.dumps(ev) + "\n")
        stats = _span_distributions(str(path))
        assert stats["flow.p50_s"] == percentile(sorted(durations), 0.5) \
            == 3.0
        assert (stats["flow.count"], stats["flow.max_s"],
                stats["flow.total_s"]) == (4.0, 32.0, 46.0)
