"""Trace analytics: windowed time-series, latency percentiles and
critical paths — the engine behind ``repro timeline``.

A JSONL trace answers *point* questions (``repro stats``) and pass/fail
questions (``repro check``); this module answers the paper's *time*
questions — what did the client see **during** the resize, where did
the bytes go, and which span chain made the lifecycle slow:

* :func:`build_analytics` bins a trace by simulation time into
  deterministic series (client throughput, migration/reintegration/
  recovery bytes, per-server bytes-in, live-flow count, degraded-read
  counts, peak bandwidth utilisation), computes per-flow-class sojourn
  latency percentiles (exact nearest-rank p50/p99/p999, with
  interrupted flows attributed separately so the tail is honest), and
  extracts the critical path of every lifecycle span tree.
* :func:`merge_analytics` folds per-task documents (merged **by task
  id**, never arrival order — the ``sweep.json`` rule) into a rollup
  with per-bin min/median/max bands across seeds.
* :func:`render_timeline` renders either document as text.

Everything here is derived from simulation time only, so same-seed
runs produce byte-identical documents (`sha256`-tested).  Windows are
half-open ``[since, until)`` via :func:`repro.obs.stats.in_window` —
the same predicate as every other windowing surface.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.report import EmptyTraceError, _fmt_gb
from repro.obs.stats import (SpanRecord, TraceSummary, check_window,
                             is_number, percentile)
from repro.obs.trace import TraceEvent, iter_jsonl

__all__ = [
    "ANALYTICS_KIND",
    "ROLLUP_KIND",
    "ANALYTICS_VERSION",
    "AnalyticsError",
    "percentile",
    "build_analytics",
    "analytics_from_trace",
    "merge_analytics",
    "validate_analytics",
    "load_analytics",
    "dump_analytics",
    "render_timeline",
]

#: ``"kind"`` of a single-run analytics document.
ANALYTICS_KIND = "repro.analytics"
#: ``"kind"`` of a cross-sweep rollup document.
ROLLUP_KIND = "repro.analytics.rollup"
#: Document schema version (bump on incompatible change).
ANALYTICS_VERSION = 1

#: Span names that open a lifecycle worth a critical path of its own.
LIFECYCLE_SPAN_NAMES = (
    "chaos.run",
    "resize.cycle",
    "reintegration.full",
    "recovery.fail",
    "recovery.departure",
    "migration.addition",
)

#: Hard cap on bin count: a typo'd ``--bin 0.001`` over a week-long
#: trace should fail loudly, not allocate gigabytes of zeros.
MAX_BINS = 100_000

#: The per-bin scalar series every document carries, in render order.
#: Values are per-bin sums except ``live_flows`` (flows alive at the
#: bin's end) and ``max_utilization`` (per-bin peak, ``None`` when no
#: bandwidth solve fell in the bin).
SERIES_KEYS = (
    "client_throughput_bytes",
    "migration_bytes",
    "reintegration_bytes",
    "recovery_bytes",
    "live_flows",
    "degraded_reads",
    "unavailable_reads",
    "max_utilization",
)

#: Latency quantiles reported per flow class.
_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


class AnalyticsError(ValueError):
    """An analytics document that cannot be built, parsed or merged
    (bad window, malformed JSON document, mismatched rollup inputs).
    CLI surfaces exit 2 on it, like any other corrupt input."""


def _round(v: float) -> float:
    """Canonical float rounding for document fields (deterministic,
    keeps JSON free of 17-digit float-noise tails)."""
    return round(float(v), 9)


# ----------------------------------------------------------------------
# time-series builder
# ----------------------------------------------------------------------
class _Bins:
    """Fixed-width bin accumulator anchored at *origin*.

    Bin *i* covers the half-open interval
    ``[origin + i*width, origin + (i+1)*width)`` — the same convention
    as the trace window, so bins partition time with no double counts.
    """

    def __init__(self, origin: float, width: float) -> None:
        self.origin = origin
        self.width = width
        self.count = 0

    def index(self, t: float) -> int:
        i = int(math.floor((t - self.origin) / self.width))
        i = max(0, i)
        if i >= self.count:
            self.count = i + 1
            if self.count > MAX_BINS:
                raise AnalyticsError(
                    f"time-series would need {self.count} bins "
                    f"(> {MAX_BINS}); raise --bin above {self.width:g} s")
        return i

    def pad(self, values: List, fill: object = 0) -> List:
        values.extend([fill] * (self.count - len(values)))
        return values


def _add(series: List[float], i: int, v: float) -> None:
    if i >= len(series):
        series.extend([0.0] * (i + 1 - len(series)))
    series[i] += v


def _set_max(series: List[Optional[float]], i: int, v: float) -> None:
    if i >= len(series):
        series.extend([None] * (i + 1 - len(series)))
    cur = series[i]
    series[i] = v if cur is None else max(cur, v)


def _build_series(summary: TraceSummary, bins: _Bins) -> Dict[str, object]:
    """One pass over the windowed events, in stream order (the trace is
    emitted in nondecreasing simulation time); per-server bytes in are
    the summary's credits."""
    byte_series: Dict[str, List[float]] = {
        "client_throughput_bytes": [],
        "migration_bytes": [],
        "reintegration_bytes": [],
        "recovery_bytes": [],
    }
    count_series: Dict[str, List[float]] = {
        "degraded_reads": [],
        "unavailable_reads": [],
    }
    max_util: List[Optional[float]] = []
    server_in: Dict[str, List[float]] = {}
    # live flows: (+1 at start, -1 at finish/cancel/interrupt) replayed
    # in stream order; per bin we record the count at the bin's end.
    live = 0
    live_at_bin: Dict[int, int] = {}

    for ev in summary.events:
        kind = ev.get("kind")
        t = ev.get("t")
        if t is None:
            continue
        i = bins.index(t)
        if kind == "flow.start":
            live += 1
            live_at_bin[i] = live
        elif kind in ("flow.finish", "flow.cancel", "flow.interrupt"):
            live = max(0, live - 1)
            live_at_bin[i] = live
            if kind == "flow.finish" and ev.get("name") == "client":
                _add(byte_series["client_throughput_bytes"], i,
                     ev.get("nbytes") or 0.0)
        elif kind == "migration.move":
            _add(byte_series["migration_bytes"], i, ev.get("nbytes") or 0.0)
        elif kind == "reintegration.step":
            _add(byte_series["reintegration_bytes"], i,
                 ev.get("nbytes") or 0.0)
        elif kind == "recovery.rereplicate":
            _add(byte_series["recovery_bytes"], i, ev.get("nbytes") or 0.0)
        elif kind == "read.degraded":
            _add(count_series["degraded_reads"], i, 1.0)
        elif kind == "read.unavailable":
            _add(count_series["unavailable_reads"], i, 1.0)
        elif kind == "bandwidth.solve":
            util = ev.get("max_util")
            if util is not None:
                _set_max(max_util, i, util)
    for t, rank, nbytes in summary.inflows:
        if t is not None:
            _add(server_in.setdefault(str(rank), []), bins.index(t), nbytes)

    # live-flow series: carry the last-seen count forward through
    # bins with no flow transitions.
    live_series: List[float] = []
    current = 0
    for i in range(bins.count):
        if i in live_at_bin:
            current = live_at_bin[i]
        live_series.append(float(current))

    out: Dict[str, object] = {}
    for name, series in byte_series.items():
        out[name] = [_round(v) for v in bins.pad(series)]
    for name, series in count_series.items():
        out[name] = [int(v) for v in bins.pad(series)]
    out["live_flows"] = [int(v) for v in live_series]
    out["max_utilization"] = [None if v is None else _round(v)
                              for v in bins.pad(max_util, fill=None)]
    out["server_bytes_in"] = {
        rank: [_round(v) for v in bins.pad(series)]
        for rank, series in sorted(server_in.items())}
    return out


# ----------------------------------------------------------------------
# per-flow latency accounting
# ----------------------------------------------------------------------
def _flow_latency(events: Sequence[TraceEvent]) -> Dict[str, Dict]:
    """Sojourn accounting per flow class.

    A flow's life is ``flow.start`` → ``flow.finish`` (completed),
    ``flow.interrupt`` (preempted; bytes in flight are wasted) or
    ``flow.cancel`` (abandoned).  Start/end are joined on ``span_id``.
    Completed sojourns feed the headline percentiles; interrupted
    flows get their own tail block so a fault-heavy run cannot hide
    preemption pain inside an optimistic p99.
    """
    starts: Dict[object, Tuple[str, float]] = {}
    per_class: Dict[str, Dict[str, List]] = {}

    def bucket(name: str) -> Dict[str, List]:
        b = per_class.get(name)
        if b is None:
            b = {"completed": [], "interrupted": [], "cancelled": [],
                 "bytes_completed": [0.0], "bytes_wasted": [0.0]}
            per_class[name] = b
        return b

    for ev in events:
        kind = ev.get("kind")
        if kind == "flow.start":
            t = ev.get("t")
            if t is not None:
                starts[ev.get("span_id")] = (str(ev.get("name", "?")), t)
        elif kind in ("flow.finish", "flow.interrupt", "flow.cancel"):
            rec = starts.pop(ev.get("span_id"), None)
            if rec is None:
                continue   # end without a windowed start (truncated head)
            name, t0 = rec
            t1 = ev.get("t")
            if t1 is None:
                continue
            sojourn = max(0.0, t1 - t0)
            b = bucket(name)
            nbytes = ev.get("nbytes") or 0.0
            if kind == "flow.finish":
                b["completed"].append(sojourn)
                b["bytes_completed"][0] += nbytes
            elif kind == "flow.interrupt":
                b["interrupted"].append(sojourn)
                b["bytes_wasted"][0] += nbytes
            else:
                b["cancelled"].append(sojourn)

    out: Dict[str, Dict] = {}
    for name in sorted(per_class):
        b = per_class[name]
        done = sorted(b["completed"])
        cut = sorted(b["interrupted"])
        entry: Dict[str, object] = {
            "completed": len(done),
            "interrupted": len(cut),
            "cancelled": len(b["cancelled"]),
            "open": 0,   # patched below
            "bytes_completed": _round(b["bytes_completed"][0]),
            "bytes_wasted": _round(b["bytes_wasted"][0]),
        }
        if done:
            for label, q in _QUANTILES:
                entry[label] = _round(percentile(done, q))
            entry["mean"] = _round(sum(done) / len(done))
            entry["max"] = _round(done[-1])
        else:
            for label, _q in _QUANTILES:
                entry[label] = None
            entry["mean"] = None
            entry["max"] = None
        # Interrupted-flow tail attribution: the sojourns the headline
        # percentiles deliberately exclude, reported alongside them.
        if cut:
            entry["interrupted_tail"] = {
                "count": len(cut),
                "p50": _round(percentile(cut, 0.50)),
                "p99": _round(percentile(cut, 0.99)),
                "max": _round(cut[-1]),
            }
        else:
            entry["interrupted_tail"] = None
        out[name] = entry

    # Flows still open at the window edge: started, never ended.
    for span_id, (name, _t0) in starts.items():
        entry = out.get(name)
        if entry is None:
            out[name] = entry = {
                "completed": 0, "interrupted": 0, "cancelled": 0,
                "open": 0, "bytes_completed": 0.0, "bytes_wasted": 0.0,
                "p50": None, "p99": None, "p999": None,
                "mean": None, "max": None, "interrupted_tail": None}
        entry["open"] = int(entry.get("open", 0)) + 1
    return dict(sorted(out.items()))


def _serving_entry(latencies: List[float], enqueued: int,
                   rejected: int) -> Dict:
    """One population's client-perceived latency summary.  Percentile
    fields are an honest ``None`` when nothing completed — a trace of
    enqueues with no completions must not fabricate a latency."""
    done = sorted(latencies)
    entry: Dict[str, object] = {
        "enqueued": enqueued,
        "completed": len(done),
        "rejected": rejected,
    }
    if done:
        for label, q in _QUANTILES:
            entry[label] = _round(percentile(done, q))
        entry["mean"] = _round(sum(done) / len(done))
        entry["max"] = _round(done[-1])
    else:
        for label, _q in _QUANTILES:
            entry[label] = None
        entry["mean"] = None
        entry["max"] = None
    return entry


def _serving_latency(events: Sequence[TraceEvent]) -> Optional[Dict]:
    """Client-perceived latency per population from the ``serve.*``
    event family, or ``None`` when the trace has no serving layer.

    Unlike :func:`_flow_latency` there is no start/end join: a
    ``serve.complete`` carries its own ``latency`` field (which
    includes any flow-control backpressure delay — the number the
    client actually felt, not the number the queue drained in).
    """
    per_pop: Dict[str, Dict[str, object]] = {}
    seen = False

    def bucket(pop: str) -> Dict[str, object]:
        b = per_pop.get(pop)
        if b is None:
            b = {"lat": [], "enqueued": 0, "rejected": 0}
            per_pop[pop] = b
        return b

    for ev in events:
        kind = ev.get("kind")
        if kind is None or not kind.startswith("serve."):
            continue
        seen = True
        pop = str(ev.get("pop", "?"))
        if kind == "serve.enqueue":
            bucket(pop)["enqueued"] += 1
        elif kind == "serve.reject":
            bucket(pop)["rejected"] += 1
        elif kind == "serve.complete":
            lat = ev.get("latency")
            if lat is not None:
                bucket(pop)["lat"].append(lat)
    if not seen:
        return None

    out: Dict[str, Dict] = {}
    pooled: List[float] = []
    enq = rej = 0
    for pop in sorted(per_pop):
        b = per_pop[pop]
        out[pop] = _serving_entry(b["lat"], b["enqueued"], b["rejected"])
        pooled.extend(b["lat"])
        enq += b["enqueued"]
        rej += b["rejected"]
    out["overall"] = _serving_entry(pooled, enq, rej)
    return out


# ----------------------------------------------------------------------
# critical paths
# ----------------------------------------------------------------------
def _critical_paths(spans: Sequence[SpanRecord]) -> List[Dict]:
    """For each closed lifecycle span, the longest-duration child chain.

    At every level the child with the largest duration is chosen (ties
    break on the smaller ``span_id`` — ids are assigned sequentially,
    so this is deterministic and favours the earlier span).  Each step
    reports its *contribution*: the span's duration minus its chosen
    child's — the time that level adds on top of the chain below it.
    """
    children: Dict[object, List[SpanRecord]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)

    paths: List[Dict] = []
    roots = [s for s in spans
             if s.name in LIFECYCLE_SPAN_NAMES and not s.open
             and s.duration is not None]
    roots.sort(key=lambda s: (s.t_begin if s.t_begin is not None else 0.0,
                              _span_order(s.span_id)))
    for root in roots:
        path: List[Dict] = []
        node: Optional[SpanRecord] = root
        while node is not None:
            kids = [k for k in children.get(node.span_id, ())
                    if not k.open and k.duration is not None]
            kids.sort(key=lambda k: (-k.duration, _span_order(k.span_id)))
            chosen = kids[0] if kids else None
            dur = node.duration or 0.0
            contribution = dur - (chosen.duration if chosen else 0.0)
            path.append({
                "name": node.name,
                "span_id": node.span_id,
                "t_begin": (None if node.t_begin is None
                            else _round(node.t_begin)),
                "duration": _round(dur),
                "contribution": _round(max(0.0, contribution)),
            })
            node = chosen
        paths.append({
            "root": root.name,
            "span_id": root.span_id,
            "t_begin": (None if root.t_begin is None
                        else _round(root.t_begin)),
            "duration": _round(root.duration or 0.0),
            "depth": len(path),
            "path": path,
        })
    return paths


def _span_order(span_id: object) -> Tuple[int, float, str]:
    """Total order over span ids of any JSON type (numbers first)."""
    if isinstance(span_id, int):
        return (0, span_id, "")
    return (1, 0, str(span_id))


# ----------------------------------------------------------------------
# document builder
# ----------------------------------------------------------------------
def build_analytics(events: Sequence[TraceEvent],
                    bin_seconds: float = 10.0,
                    since: Optional[float] = None,
                    until: Optional[float] = None,
                    source: Optional[str] = None) -> Dict:
    """Build the ``repro.analytics`` document from in-memory events.

    The window is half-open ``[since, until)``; bins are anchored at
    *since* (or 0 when unbounded) so identical windows always produce
    identical bin edges.  Critical paths and flow latencies are
    computed over the *windowed* events — a flow ending outside the
    window is counted as still open, which is exactly what an observer
    restricted to that window would see.
    """
    check_window(since, until)
    if not is_number(bin_seconds) or not 0 < bin_seconds < math.inf:
        raise AnalyticsError(
            f"--bin must be a positive finite number of simulated "
            f"seconds, got {bin_seconds!r}")
    summary = TraceSummary(events, since, until)
    t_min, t_max = summary.extent()

    origin = since if since is not None else 0.0
    bins = _Bins(origin, float(bin_seconds))
    series = _build_series(summary, bins)
    latency = _flow_latency(summary.events)
    paths = _critical_paths(summary.spans)
    serving = _serving_latency(summary.events)

    doc = {
        "kind": ANALYTICS_KIND,
        "version": ANALYTICS_VERSION,
        "source": source,
        "window": {
            "since": since,
            "until": until,
            "bin_seconds": float(bin_seconds),
            "origin": float(origin),
        },
        "events": {
            "total": len(events),
            "in_window": len(summary.events),
            "t_min": None if t_min is None else _round(t_min),
            "t_max": None if t_max is None else _round(t_max),
        },
        "bins": bins.count,
        "series": series,
        "latency": latency,
        "critical_paths": paths,
    }
    if serving is not None:
        # Additive key: validate_analytics checks required keys only,
        # so documents from serve-less traces stay byte-identical.
        doc["serving"] = serving
    return doc


def analytics_from_trace(path: str, bin_seconds: float = 10.0,
                         since: Optional[float] = None,
                         until: Optional[float] = None) -> Dict:
    """Build the analytics document straight from a JSONL trace file.

    Raises :class:`~repro.obs.trace.TraceParseError` (with the line
    number) on corrupt lines and :class:`EmptyTraceError` on a
    zero-event trace — both mapped to CLI exit 2.
    """
    events = [event for _line_no, event in iter_jsonl(path)]
    if not events:
        raise EmptyTraceError(path)
    return build_analytics(events, bin_seconds=bin_seconds,
                           since=since, until=until, source=path)


# ----------------------------------------------------------------------
# cross-sweep rollup
# ----------------------------------------------------------------------
def merge_analytics(docs: Dict[str, Dict]) -> Dict:
    """Merge per-task analytics documents into a
    ``repro.analytics.rollup``.

    *docs* maps task id → single-run document.  Tasks are merged in
    sorted-task-id order (never completion order), so the rollup is
    byte-identical for any worker count.  All inputs must share the
    same window/bin configuration — a mismatch raises
    :class:`AnalyticsError` rather than silently averaging
    incompatible bins.

    For every scalar series the rollup carries per-bin ``lo`` (min),
    ``p50`` (nearest-rank median) and ``hi`` (max) bands across tasks;
    latency percentiles get min/median/max bands per flow class.
    """
    if not docs:
        raise AnalyticsError("merge_analytics: no documents to merge")
    task_ids = sorted(docs)
    ordered = [docs[tid] for tid in task_ids]
    for tid, doc in zip(task_ids, ordered):
        validate_analytics(doc, expect_kind=ANALYTICS_KIND)
    window0 = ordered[0]["window"]
    for tid, doc in zip(task_ids, ordered):
        if doc["window"] != window0:
            raise AnalyticsError(
                f"merge_analytics: task {tid!r} was built with window "
                f"{doc['window']} != {window0} — rebuild with matching "
                f"--bin/--since/--until")

    n_bins = max(int(d.get("bins", 0)) for d in ordered)

    def band_over_bins(values_per_task: List[List], fill: object
                       ) -> Dict[str, List]:
        lo: List = []
        mid: List = []
        hi: List = []
        for i in range(n_bins):
            col = []
            for vals in values_per_task:
                v = vals[i] if i < len(vals) else fill
                if v is not None:
                    col.append(v)
            if col:
                col.sort()
                lo.append(col[0])
                mid.append(percentile(col, 0.50))
                hi.append(col[-1])
            else:
                lo.append(None)
                mid.append(None)
                hi.append(None)
        return {"lo": lo, "p50": mid, "hi": hi}

    series_bands: Dict[str, Dict] = {}
    for key in SERIES_KEYS:
        fill = None if key == "max_utilization" else 0
        series_bands[key] = band_over_bins(
            [list(d["series"].get(key, [])) for d in ordered], fill)

    # latency bands per flow class, over the tasks that saw the class
    classes = sorted({name for d in ordered for name in d["latency"]})
    latency_bands: Dict[str, Dict] = {}
    for name in classes:
        entries = [d["latency"][name] for d in ordered
                   if name in d["latency"]]
        band: Dict[str, object] = {
            "tasks": len(entries),
            "completed": sum(int(e.get("completed", 0)) for e in entries),
            "interrupted": sum(int(e.get("interrupted", 0))
                               for e in entries),
            "cancelled": sum(int(e.get("cancelled", 0)) for e in entries),
            "open": sum(int(e.get("open", 0)) for e in entries),
        }
        for label, _q in _QUANTILES:
            vals = sorted(e[label] for e in entries
                          if e.get(label) is not None)
            band[label] = (None if not vals else
                           {"lo": vals[0],
                            "p50": percentile(vals, 0.50),
                            "hi": vals[-1]})
        latency_bands[name] = band

    return {
        "kind": ROLLUP_KIND,
        "version": ANALYTICS_VERSION,
        "tasks": task_ids,
        "window": window0,
        "bins": n_bins,
        "series_bands": series_bands,
        "latency_bands": latency_bands,
    }


# ----------------------------------------------------------------------
# load / validate / dump
# ----------------------------------------------------------------------
def validate_analytics(doc: object,
                       expect_kind: Optional[str] = None,
                       source: str = "<doc>") -> Dict:
    """Check that *doc* is a structurally sound analytics document
    (either kind unless *expect_kind* pins one).  Returns the document;
    raises :class:`AnalyticsError` describing the first problem."""
    if not isinstance(doc, dict):
        raise AnalyticsError(
            f"{source}: expected a JSON object, got "
            f"{type(doc).__name__}")
    kind = doc.get("kind")
    allowed = ((expect_kind,) if expect_kind
               else (ANALYTICS_KIND, ROLLUP_KIND))
    if kind not in allowed:
        raise AnalyticsError(
            f"{source}: kind {kind!r} is not "
            f"{' or '.join(repr(a) for a in allowed)}")
    if doc.get("version") != ANALYTICS_VERSION:
        raise AnalyticsError(
            f"{source}: unsupported version {doc.get('version')!r} "
            f"(this build reads version {ANALYTICS_VERSION})")
    required = (("window", "bins", "series", "latency", "critical_paths")
                if kind == ANALYTICS_KIND
                else ("window", "bins", "tasks", "series_bands",
                      "latency_bands"))
    for key in required:
        if key not in doc:
            raise AnalyticsError(f"{source}: missing required key "
                                 f"{key!r} for {kind!r}")
    window = doc["window"]
    if (not isinstance(window, dict)
            or not is_number(window.get("bin_seconds"))
            or not 0 < window["bin_seconds"] < math.inf):
        raise AnalyticsError(
            f"{source}: window.bin_seconds must be a positive finite "
            f"number")
    if kind == ANALYTICS_KIND and not isinstance(doc["series"], dict):
        raise AnalyticsError(f"{source}: series must be an object")
    return doc


def load_analytics(path: str) -> Dict:
    """Load and validate a saved analytics (or rollup) document."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise AnalyticsError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AnalyticsError(
            f"{path}: invalid JSON at line {exc.lineno}: "
            f"{exc.msg}") from exc
    return validate_analytics(doc, source=path)


def dump_analytics(doc: Dict, path: str) -> None:
    """Write a document as canonical JSON: sorted keys, compact
    separators, trailing newline — byte-identical for equal inputs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True,
                            separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------
def _fmt(v: object, unit: str = "") -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:g}{unit}"
    return f"{v}{unit}"


def _series_summary_rows(series: Dict[str, object], bins: int,
                         origin: float, width: float) -> List[List[str]]:
    rows: List[List[str]] = []
    for key in SERIES_KEYS:
        vals = series.get(key)
        if not isinstance(vals, list) or not vals:
            rows.append([key, "-", "-", "-"])
            continue
        numeric = [(i, v) for i, v in enumerate(vals) if is_number(v)]
        if not numeric:
            rows.append([key, "-", "-", "-"])
            continue
        peak_i, peak = max(numeric, key=lambda p: (p[1], -p[0]))
        total = sum(v for _i, v in numeric)
        if key.endswith("_bytes"):
            total_s, peak_s = _fmt_gb(total) + " GB", _fmt_gb(peak) + " GB"
        elif key in ("live_flows", "max_utilization"):
            total_s, peak_s = "-", _fmt(peak)
        else:
            total_s, peak_s = _fmt(total), _fmt(peak)
        rows.append([key, total_s, peak_s,
                     f"{origin + peak_i * width:g}"])
    return rows


def render_timeline(doc: Dict) -> str:
    """Text report for an analytics or rollup document — the
    ``repro timeline`` stdout."""
    from repro.metrics.report import render_table

    validate_analytics(doc)
    out: List[str] = []
    window = doc["window"]
    w_desc = (f"[{_fmt(window.get('since'), '')}, "
              f"{_fmt(window.get('until'), '')}) "
              f"bin {window['bin_seconds']:g} s")
    if doc["kind"] == ROLLUP_KIND:
        out.append(f"# Sweep timeline rollup — {len(doc['tasks'])} "
                   f"task(s), window {w_desc}")
        out.append("")
        rows = []
        for name, band in sorted(doc["latency_bands"].items()):
            cells = [name, band["tasks"], band["completed"],
                     band["interrupted"]]
            for label, _q in _QUANTILES:
                b = band.get(label)
                cells.append("-" if b is None else
                             f"{b['lo']:g}/{b['p50']:g}/{b['hi']:g}")
            rows.append(cells)
        out.append(render_table(
            ["class", "tasks", "done", "intr",
             "p50 lo/med/hi (s)", "p99 lo/med/hi (s)",
             "p999 lo/med/hi (s)"], rows,
            title="Latency bands across tasks"))
        out.append("")
        rows = []
        for key in SERIES_KEYS:
            band = doc["series_bands"].get(key)
            if not band:
                continue
            his = [v for v in band["hi"] if is_number(v)]
            peak = max(his) if his else None
            if key.endswith("_bytes"):
                peak_s = "-" if peak is None else _fmt_gb(peak) + " GB"
            else:
                peak_s = _fmt(peak)
            rows.append([key, doc["bins"], peak_s])
        out.append(render_table(["series", "bins", "peak hi-band"],
                                rows, title="Series bands"))
        return "\n".join(out)

    # ---------------- single-run document -----------------------------
    ev = doc.get("events") or {}
    src = doc.get("source") or "<events>"
    out.append(f"# Timeline — {src}")
    out.append("")
    out.append(f"{ev.get('in_window', '?')} of {ev.get('total', '?')} "
               f"events in window {w_desc}; "
               f"t = [{_fmt(ev.get('t_min'))}, {_fmt(ev.get('t_max'))}] "
               f"s over {doc['bins']} bin(s).")
    out.append("")

    rows = []
    for name, entry in sorted(doc["latency"].items()):
        tail = entry.get("interrupted_tail")
        rows.append([
            name, entry["completed"], entry["interrupted"],
            entry.get("open", 0),
            _fmt(entry["p50"]), _fmt(entry["p99"]), _fmt(entry["p999"]),
            _fmt(entry["max"]),
            "-" if tail is None else f"{tail['p99']:g}",
        ])
    out.append(render_table(
        ["class", "done", "intr", "open", "p50 (s)", "p99 (s)",
         "p999 (s)", "max (s)", "intr p99 (s)"], rows,
        title="Flow latency (sojourn, completed flows)"))
    out.append("")

    serving = doc.get("serving")
    if serving:
        rows = []
        for pop, entry in serving.items():
            rows.append([
                pop, entry["enqueued"], entry["completed"],
                entry["rejected"],
                _fmt(entry["p50"]), _fmt(entry["p99"]),
                _fmt(entry["p999"]), _fmt(entry["max"]),
            ])
        out.append(render_table(
            ["population", "enq", "done", "rej", "p50 (s)", "p99 (s)",
             "p999 (s)", "max (s)"], rows,
            title="Client-perceived serving latency"))
        out.append("")

    origin = float(window.get("origin", 0.0))
    width = float(window["bin_seconds"])
    out.append(render_table(
        ["series", "total", "peak bin", "peak at t (s)"],
        _series_summary_rows(doc["series"], doc["bins"], origin, width),
        title="Time-series summary"))
    out.append("")

    paths = doc["critical_paths"]
    out.append(f"Critical paths ({len(paths)} lifecycle(s)):")
    if not paths:
        out.append("  (no closed lifecycle spans in window)")
    for p in paths:
        out.append(f"- {p['root']} #{p['span_id']} @ "
                   f"t={_fmt(p['t_begin'])} s — {p['duration']:g} s, "
                   f"depth {p['depth']}")
        for depth, step in enumerate(p["path"]):
            pct = (100.0 * step["contribution"] / p["duration"]
                   if p["duration"] else 0.0)
            out.append(f"  {'  ' * depth}{step['name']} "
                       f"#{step['span_id']}: {step['duration']:g} s "
                       f"(+{step['contribution']:g} s self, "
                       f"{pct:.0f}% of lifecycle)")
    return "\n".join(out)
