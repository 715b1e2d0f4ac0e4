"""repro.obs — structured tracing, spans, invariants, and metrics.

The observability layer under every experiment and benchmark:

* :class:`~repro.obs.trace.TraceBus` (``OBS.bus``) — structured event
  stream with pluggable sinks (ring buffer, JSONL file, null);
* :class:`~repro.obs.spans.SpanTracker` (``OBS.spans``) —
  ``span.begin``/``span.end`` pairs around the major lifecycles
  (flows, resize cycles, re-integration passes, recovery);
* :mod:`~repro.obs.invariants` — online checkers over the event
  stream (``repro check``, the ``--check`` flag);
* :mod:`~repro.obs.report` — the ``repro report`` markdown run
  analysis built from one JSONL trace;
* :class:`~repro.obs.metrics.MetricsRegistry` (``OBS.metrics``) —
  named counters / gauges with a deterministic ``snapshot()`` /
  ``render()`` API (simulation state only, no wall time);
* :mod:`~repro.obs.profile` — the deterministic instrumentation
  profiler behind ``--profile-out`` / ``repro profile`` (hierarchical
  wall-clock + sim-time attribution, flamegraph collapsed stacks); the
  one module in ``src/`` that reads the wall clock to measure;
* :mod:`~repro.obs.compare` — the ``repro compare`` bench-timing gate
  (two bench JSON files, one relative regression threshold);
* :mod:`~repro.obs.analytics` — the ``repro timeline`` windowed
  time-series / latency-percentile / critical-path builder
  (``repro.analytics`` documents and cross-sweep rollups);
* :data:`~repro.obs.runtime.OBS` — the process-wide runtime binding
  them.

See docs/OBSERVABILITY.md for event kinds, the span schema, the
checker protocol, and metric naming conventions.

Examples
--------
>>> from repro.obs import OBS
>>> with OBS.bus.capture() as sink:
...     OBS.bus.emit("demo.event", t=1.5, answer=42)
>>> sink.events("demo.event")[0]["answer"]
42
"""

from repro.obs.invariants import (
    Checker,
    CheckerSink,
    InvariantSuite,
    Violation,
    check_events,
    default_checkers,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.profile import (
    ProfileError,
    ProfileNode,
    Profiler,
    collapsed_stacks,
    load_profile,
    profile_document,
)
from repro.obs.runtime import OBS, Runtime
from repro.obs.spans import Span, SpanTracker
from repro.obs.trace import (
    FIELDS,
    JSONLSink,
    NullSink,
    RingBufferSink,
    Sink,
    TraceBus,
    TraceEvent,
    TraceParseError,
    check_event,
    iter_jsonl,
    read_jsonl,
)

__all__ = [
    "OBS",
    "Runtime",
    "TraceBus",
    "TraceEvent",
    "TraceParseError",
    "FIELDS",
    "check_event",
    "Sink",
    "NullSink",
    "RingBufferSink",
    "JSONLSink",
    "read_jsonl",
    "iter_jsonl",
    "Span",
    "SpanTracker",
    "Checker",
    "CheckerSink",
    "InvariantSuite",
    "Violation",
    "check_events",
    "default_checkers",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Profiler",
    "ProfileNode",
    "ProfileError",
    "profile_document",
    "collapsed_stacks",
    "load_profile",
    "render_profile",
    "TraceSummary",
    "render_trace_stats",
    "check_trace",
    "render_check",
    "render_run_report",
    "EmptyTraceError",
    "compare_runs",
    "render_compare",
    "AnalyticsError",
    "build_analytics",
    "analytics_from_trace",
    "merge_analytics",
    "validate_analytics",
    "load_analytics",
    "dump_analytics",
    "render_timeline",
    "percentile",
]


def __getattr__(name: str):
    # repro.obs.stats / repro.obs.report pull in the ASCII renderers of
    # repro.metrics, which sit above this package in the import graph
    # (instrumented modules import repro.obs.runtime at import time) —
    # resolve those helpers lazily to keep the layering acyclic.
    if name in ("TraceSummary", "render_trace_stats"):
        from repro.obs import stats
        return getattr(stats, name)
    if name in ("check_trace", "render_check", "render_run_report",
                "EmptyTraceError"):
        from repro.obs import report
        return getattr(report, name)
    if name == "render_profile":
        from repro.obs.profile import render_profile
        return render_profile
    if name in ("compare_runs", "render_compare"):
        from repro.obs import compare
        return getattr(compare, name)
    if name in ("AnalyticsError", "build_analytics", "analytics_from_trace",
                "merge_analytics", "validate_analytics", "load_analytics",
                "dump_analytics", "render_timeline", "percentile"):
        from repro.obs import analytics
        return getattr(analytics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
