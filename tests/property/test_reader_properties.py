"""The offline readers agree: on any stream whose fields have their
``FIELDS`` types, every quantity two of ``repro stats``, ``report``
and ``timeline`` both show is the same number, and the span rows are
the ones the events themselves pair up."""

import json
import os
import re
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.analytics import build_analytics
from repro.obs.report import render_run_report
from repro.obs.stats import TraceSummary, percentile, render_trace_stats
from repro.obs.trace import check_event, read_jsonl

_RANKS = st.integers(min_value=0, max_value=6)
_BYTES = st.one_of(st.none(), st.integers(min_value=0, max_value=10**10),
                   st.floats(min_value=0.0, max_value=1e10))
_SPAN_NAMES = st.sampled_from(["flow", "resize.cycle", "recovery.fail"])


def _payload(kind):
    """Strategy for the fields of one event of *kind* (``t`` aside)."""
    if kind == "span.begin":
        return st.fixed_dictionaries(
            {"name": _SPAN_NAMES, "span_id": st.integers(1, 6)},
            optional={"parent_id": st.integers(1, 6)})
    if kind == "span.end":
        return st.fixed_dictionaries(
            {"name": _SPAN_NAMES, "span_id": st.integers(1, 6)},
            optional={"duration": st.floats(min_value=0.0,
                                            max_value=100.0)})
    if kind == "migration.move":
        return st.fixed_dictionaries(
            {"nbytes": _BYTES, "to": st.lists(_RANKS, max_size=3)})
    if kind in ("recovery.rereplicate", "migration.addition"):
        return st.fixed_dictionaries({"rank": _RANKS, "nbytes": _BYTES})
    if kind == "flow.start":
        return st.fixed_dictionaries({"name": st.just("client"),
                                      "span_id": st.integers(1, 6),
                                      "total_bytes": _BYTES})
    if kind == "flow.finish":
        return st.fixed_dictionaries({"name": st.just("client"),
                                      "span_id": st.integers(1, 6),
                                      "nbytes": _BYTES})
    return st.fixed_dictionaries({})


_KINDS = st.sampled_from([
    "span.begin", "span.end", "migration.move", "recovery.rereplicate",
    "migration.addition", "flow.start", "flow.finish", "engine.tick",
    "version.advance"])


@st.composite
def streams(draw):
    """A stream in nondecreasing simulation time, as the bus emits."""
    times = sorted(draw(st.lists(
        st.one_of(st.integers(0, 300),
                  st.floats(min_value=0.0, max_value=300.0)),
        min_size=1, max_size=40)))
    events = []
    for t in times:
        kind = draw(_KINDS)
        event = {"kind": kind, "t": t, **draw(_payload(kind))}
        check_event(event)
        events.append(event)
    return events


_BOUND = st.one_of(st.none(), st.floats(min_value=0.0, max_value=300.0))


@st.composite
def windows(draw):
    since, until = draw(_BOUND), draw(_BOUND)
    if since is not None and until is not None and since > until:
        since, until = until, since
    return since, until


def _write(directory, events):
    path = os.path.join(directory, "trace.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    return path


def _closed_durations(events):
    """Span name -> ascending durations of the spans closed by a
    ``span.end`` that carries one, each end pairing with the latest
    ``span.begin`` of its ``span_id`` if that span is still open."""
    latest, out = {}, {}
    for ev in events:
        if ev["kind"] == "span.begin":
            latest[ev["span_id"]] = [ev["name"], True]
        elif ev["kind"] == "span.end":
            begin = latest.get(ev["span_id"])
            if begin is not None and begin[1]:
                begin[1] = False
                if ev.get("duration") is not None:
                    out.setdefault(begin[0], []).append(
                        float(ev["duration"]))
    return {name: sorted(ds) for name, ds in out.items()}


def _md_rows(report, heading):
    """Cells of the markdown table under *heading* (header excluded)."""
    section = report.split(heading, 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[c.strip() for c in row.strip("|").split("|")]
            for row in rows[2:]]


class TestReadersAgree:
    @given(events=streams(), window=windows())
    @settings(max_examples=60, deadline=None)
    def test_counts_and_extent(self, events, window):
        since, until = window
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, events)
            stats = render_trace_stats(path, since=since, until=until)
            report = render_run_report(path, since=since, until=until)
            parsed = read_jsonl(path)
        doc = build_analytics(parsed, since=since, until=until)
        expected = TraceSummary(parsed, since, until)
        n = len(expected.events)
        kinds = len(expected.kinds)

        t_min, t_max = expected.extent()
        extent = ("" if t_min is None
                  else f"t = [{t_min:g}, {t_max:g}] s")
        # analytics: the events block (document floats are rounded)
        assert doc["events"]["in_window"] == n
        assert (doc["events"]["t_min"], doc["events"]["t_max"]) == (
            (None, None) if t_min is None
            else (round(t_min, 9), round(t_max, 9)))
        # report: "N trace events across K event kinds over t = [..]"
        head = re.search(r"(\d+) trace events across (\d+) event kinds",
                         report)
        assert (int(head.group(1)), int(head.group(2))) == (n, kinds)
        assert extent in report
        # stats: the title and the per-kind rows
        if n == 0:
            assert "no matching trace events" in stats
            return
        assert stats.splitlines()[0] == f"{path}: {n} events, {extent}"
        counts = {}
        for line in stats.splitlines():
            cells = line.split()
            if cells and cells[0] in expected.kinds:
                counts[cells[0]] = int(cells[1])
        assert sum(counts.values()) == n and len(counts) == kinds

    @given(events=streams())
    @example(events=[  # a second end of a closed span closes nothing
        {"kind": "span.begin", "t": 0.0, "name": "flow", "span_id": 1},
        {"kind": "span.end", "t": 1.0, "name": "flow", "span_id": 1,
         "duration": 1.0},
        {"kind": "span.end", "t": 5.0, "name": "flow", "span_id": 1,
         "duration": 5.0}])
    @settings(max_examples=60, deadline=None)
    def test_span_statistics(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, events)
            report = render_run_report(path)
        shown = {}
        if "## Span durations" in report and "(no spans" not in report:
            for name, closed, _open, _min, p50, _mean, mx, total in \
                    _md_rows(report, "## Span durations"):
                if int(closed):
                    shown[name] = (int(closed), p50, mx, total)
        expected = {name: (len(ds), f"{percentile(ds, 0.5):g}",
                           f"{ds[-1]:g}", f"{sum(ds):g}")
                    for name, ds in _closed_durations(events).items()}
        assert shown == expected

    @given(events=streams(), window=windows())
    @settings(max_examples=60, deadline=None)
    def test_bytes_in_per_rank(self, events, window):
        since, until = window
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, events)
            report = render_run_report(path, since=since, until=until)
        doc = build_analytics(events, since=since, until=until)
        series = doc["series"]["server_bytes_in"]
        heading = "## Migration & recovery bytes per server"
        shown = {}
        if "(no migration or recovery traffic" not in report:
            for rank, *columns in _md_rows(report, heading):
                if rank != "**total**":
                    shown[rank] = sum(float(c) for c in columns)
        assert set(shown) == set(series)
        for rank, gb in shown.items():
            assert abs(gb - sum(series[rank]) / 1e9) <= 2e-3

    @given(events=streams(), window=windows(),
           split=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_adjacent_windows_partition(self, events, window, split):
        since, until = window
        lo = 0.0 if since is None else since
        hi = 300.0 if until is None else until
        mid = lo + (hi - lo) * split
        whole = TraceSummary(events, since, until).kinds
        left = TraceSummary(events, since, mid).kinds
        right = TraceSummary(events, mid, until).kinds
        for kind in set(whole) | set(left) | set(right):
            count = lambda kinds: kinds.get(kind, [0])[0]
            assert count(left) + count(right) == count(whole), kind
        halves = [build_analytics(events, since=since, until=mid),
                  build_analytics(events, since=mid, until=until)]
        assert sum(d["events"]["in_window"] for d in halves) == sum(
            row[0] for row in whole.values())
