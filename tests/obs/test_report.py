"""The run-analysis layer: span reconstruction, `repro report`
rendering, and `repro check`'s text/exit-code contract."""

import json

import pytest

from repro.cli import main
from repro.obs.report import (
    EmptyTraceError,
    check_trace,
    render_check,
    render_run_report,
)
from repro.obs.stats import TraceSummary, percentile
from repro.obs.trace import TraceParseError


def collect_spans(events):
    return TraceSummary(events).spans


def write_jsonl(path, events):
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    return str(path)


class TestCollectSpans:
    def test_pairs_by_id(self):
        spans = collect_spans([
            {"kind": "span.begin", "t": 1.0, "name": "flow", "span_id": 1},
            {"kind": "span.begin", "t": 2.0, "name": "flow", "span_id": 2},
            {"kind": "span.end", "t": 9.0, "name": "flow", "span_id": 1,
             "duration": 8.0},
        ])
        assert [s.span_id for s in spans] == [1, 2]
        assert spans[0].duration == 8.0 and not spans[0].open
        assert spans[1].open

    def test_end_without_begin_ignored(self):
        assert collect_spans([{"kind": "span.end", "span_id": 7,
                               "t": 1.0, "duration": 1.0}]) == []

    def test_parent_id_preserved(self):
        spans = collect_spans([
            {"kind": "span.begin", "t": 0.0, "name": "resize.cycle",
             "span_id": 1},
            {"kind": "span.begin", "t": 0.0, "name": "flow",
             "span_id": 2, "parent_id": 1},
        ])
        assert spans[1].parent_id == 1


class TestRenderCheck:
    def test_clean_trace_exit_zero(self, tmp_path):
        path = write_jsonl(tmp_path / "ok.jsonl",
                           [{"kind": "version.advance", "t": 0.0,
                             "version": 1}])
        text, code = render_check(path)
        assert code == 0 and "all invariants hold" in text

    def test_violation_exit_one_names_line(self, tmp_path):
        path = write_jsonl(tmp_path / "bad.jsonl", [
            {"kind": "version.advance", "t": 0.0, "version": 2},
            {"kind": "version.advance", "t": 1.0, "version": 1},
        ])
        text, code = render_check(path)
        assert code == 1
        assert "line 2" in text
        assert "version-monotonic" in text
        assert "FAIL" in text

    def test_corrupt_line_raises_parse_error(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"kind":"a","t":0}\n{oops\n')
        with pytest.raises(TraceParseError) as exc:
            check_trace(str(path))
        assert exc.value.line_no == 2


class TestRunReport:
    @pytest.fixture(scope="class")
    def report_text(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rep") / "run.jsonl"
        assert main(["three-phase", "--mode", "selective",
                     "--scale", "0.05", "--trace-out", str(path)]) == 0
        return render_run_report(str(path))

    def test_has_all_sections(self, report_text):
        for heading in ("# Run report", "## Lifecycle timeline",
                        "## Span durations",
                        "## Migration & recovery bytes per server",
                        "## Invariants"):
            assert heading in report_text

    def test_timeline_shows_resize_milestones(self, report_text):
        assert "power.resize" in report_text
        assert "version.advance" in report_text

    def test_span_stats_cover_lifecycles(self, report_text):
        assert "| flow |" in report_text
        assert "resize.cycle" in report_text
        assert "reintegration.pass" in report_text

    def test_p50_is_the_one_percentile(self, tmp_path):
        """Regression: the span table took the *upper* median
        (``ds[len(ds) // 2]``) while ``repro timeline`` and the serve
        report use nearest-rank — four flows lasting 3, 3, 8 and 32 s
        (the CI three-phase trace) printed p50 = 8 here and 3 there."""
        durations = [3.0, 32.0, 3.0, 8.0]
        events = []
        for i, d in enumerate(durations):
            events += [{"kind": "span.begin", "t": float(i),
                        "name": "flow", "span_id": i},
                       {"kind": "span.end", "t": i + d, "name": "flow",
                        "span_id": i, "duration": d}]
        text = render_run_report(write_jsonl(tmp_path / "t.jsonl", events))
        (row,) = [line for line in text.splitlines()
                  if line.startswith("| flow |")]
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert percentile(sorted(durations), 0.5) == 3.0
        # span, closed, open, min, p50, mean, max, total
        assert cells == ["flow", "4", "0", "3", "3", "11.5", "32", "46"]

    def test_byte_breakdown_totals(self, report_text):
        assert "**total**" in report_text

    def test_invariant_table_all_pass(self, report_text):
        assert "PASS" in report_text
        assert "**FAIL**" not in report_text

    def test_empty_trace_refused(self, tmp_path):
        # A zero-event trace is a broken run, not an all-pass one: both
        # analyses raise EmptyTraceError (the CLI maps it to exit 2).
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(EmptyTraceError, match="empty trace"):
            render_run_report(str(path))
        with pytest.raises(EmptyTraceError, match="empty trace"):
            check_trace(str(path))
