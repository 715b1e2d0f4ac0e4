"""Run-vs-run comparison: the ``repro compare`` command.

Diffs two run directories (or two standalone JSON artifacts) and
renders a markdown verdict.  A *run directory* is whatever a sweep
task or a ``--trace-out``/``--profile-out`` invocation left behind —
any subset of:

* ``metrics.json`` — metrics-registry snapshot (sim-derived);
* ``trace.jsonl`` — the JSONL trace (span-duration distributions);
* ``profile.json`` — a ``repro.profile`` document (wall-clock
  hotspots);
* ``analytics.json`` / ``analytics_rollup.json`` — ``repro.analytics``
  documents (latency percentiles and series summaries, sim-derived);
* ``bench*.json`` / ``perf_*.json`` — bench reports
  (``_bench_utils.emit_report`` / ``perf_core_timings``-shaped).

Classification follows the determinism contract: **sim-derived**
quantities (metrics, span durations) are byte-reproducible, so any
difference is reported as *drift* — interesting, but a regression only
under ``--strict`` (same-seed runs should not drift at all).
**Wall-clock** quantities (profile self-seconds, bench timings) are
noisy by nature, so they regress only beyond a relative *threshold*;
profile frames additionally must clear an absolute *min-seconds*
floor (single-frame nanosecond jitter never fails a gate — bench
medians are already statistically settled, so the floor does not
apply to them).

Exit codes: 0 = OK, 1 = regression(s) beyond threshold.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional

from repro.obs.report import _md_table, collect_spans
from repro.obs.stats import is_number, percentile

__all__ = [
    "CompareError",
    "Delta",
    "ComparisonResult",
    "compare_runs",
    "render_compare",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_SECONDS",
]

#: Default relative regression threshold for wall-clock quantities
#: (0.25 = fail when B is more than 25% slower than A).
DEFAULT_THRESHOLD = 0.25

#: Absolute floor for profile frames: hotspots where both sides sit
#: below this many seconds are ignored by the gate (pure jitter).
DEFAULT_MIN_SECONDS = 1e-4

#: Artifact filenames probed inside a run directory.
METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.jsonl"
PROFILE_FILE = "profile.json"
ANALYTICS_FILE = "analytics.json"
ANALYTICS_ROLLUP_FILE = "analytics_rollup.json"


class CompareError(ValueError):
    """Unusable comparison input (missing paths, no artifacts, or
    artifacts of unrecognised shape)."""


class Delta:
    """One compared quantity."""

    __slots__ = ("section", "name", "a", "b", "unit", "kind")

    def __init__(self, section: str, name: str,
                 a: Optional[float], b: Optional[float],
                 unit: str, kind: str) -> None:
        self.section = section
        self.name = name
        self.a = a
        self.b = b
        self.unit = unit
        #: "regression" | "improvement" | "drift" | "added" | "removed"
        self.kind = kind

    @property
    def rel(self) -> Optional[float]:
        """Relative change (B-A)/A, when defined."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)

    def to_dict(self) -> Dict[str, object]:
        return {"section": self.section, "name": self.name,
                "a": self.a, "b": self.b, "unit": self.unit,
                "kind": self.kind, "rel": self.rel}


class ComparisonResult:
    """Everything ``repro compare`` found, pre-verdict."""

    def __init__(self, label_a: str, label_b: str,
                 threshold: float, min_seconds: float,
                 strict: bool) -> None:
        self.label_a = label_a
        self.label_b = label_b
        self.threshold = threshold
        self.min_seconds = min_seconds
        self.strict = strict
        self.deltas: List[Delta] = []
        self.sections: List[str] = []
        self.skipped: List[str] = []

    # ------------------------------------------------------------------
    def add(self, delta: Delta) -> None:
        self.deltas.append(delta)

    @property
    def regressions(self) -> List[Delta]:
        out = [d for d in self.deltas if d.kind == "regression"]
        if self.strict:
            out += [d for d in self.deltas if d.kind == "drift"]
        return out

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for d in self.deltas:
            out[d.kind] = out.get(d.kind, 0) + 1
        return out


# ----------------------------------------------------------------------
# numeric flattening
# ----------------------------------------------------------------------
def _flatten_numeric(obj: object, prefix: str = "",
                     out: Optional[Dict[str, float]] = None
                     ) -> Dict[str, float]:
    """Dotted-path → value for every numeric leaf of a JSON object."""
    if out is None:
        out = {}
    if is_number(obj):
        out[prefix or "value"] = float(obj)   # type: ignore[arg-type]
    elif isinstance(obj, dict):
        for k in sorted(obj):
            key = f"{prefix}.{k}" if prefix else str(k)
            _flatten_numeric(obj[k], key, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten_numeric(v, f"{prefix}[{i}]", out)
    return out


def _diff_maps(result: ComparisonResult, section: str, unit: str,
               a: Mapping[str, float], b: Mapping[str, float],
               wall: bool, floor: float = 0.0) -> None:
    """Compare two flat name→value maps; *wall* selects the
    threshold-gated classification, otherwise differences are drift.
    *floor* drops wall pairs where both sides are below it (jitter);
    bench medians are already statistically settled, so only the
    profile section passes one."""
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va is None:
            result.add(Delta(section, name, None, vb, unit, "added"))
            continue
        if vb is None:
            result.add(Delta(section, name, va, None, unit, "removed"))
            continue
        if va == vb:
            continue
        if not wall:
            result.add(Delta(section, name, va, vb, unit, "drift"))
            continue
        if max(va, vb) < floor:
            continue       # below the jitter floor: not even drift
        rel = (vb - va) / abs(va) if va != 0 else float("inf")
        if rel > result.threshold:
            kind = "regression"
        elif rel < -result.threshold:
            kind = "improvement"
        else:
            kind = "drift"
        result.add(Delta(section, name, va, vb, unit, kind))


# ----------------------------------------------------------------------
# artifact loaders
# ----------------------------------------------------------------------
def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise CompareError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise CompareError(f"{path}: {exc}") from exc


def _span_distributions(trace_path: str) -> Dict[str, float]:
    """Per-span-name closed count + sim-duration stats from one trace."""
    from repro.obs.trace import read_jsonl

    spans = collect_spans(read_jsonl(trace_path))
    out: Dict[str, float] = {}
    durs: Dict[str, List[float]] = {}
    for s in spans:
        if s.open or s.duration is None:
            continue
        durs.setdefault(s.name, []).append(s.duration)
    for name, ds in durs.items():
        ds.sort()
        out[f"{name}.count"] = float(len(ds))
        out[f"{name}.total_s"] = sum(ds)
        out[f"{name}.max_s"] = ds[-1]
        out[f"{name}.p50_s"] = percentile(ds, 0.5)
    return out


def _profile_hotspots(path: str) -> Dict[str, float]:
    """Component → self-seconds from one profile document."""
    from repro.obs.profile import flatten, load_profile

    flat = flatten(load_profile(path))
    return {name: float(agg.get("self_s", 0.0))
            for name, agg in flat.items()}


def _analytics_summary(path: str) -> Dict[str, float]:
    """Sim-derived headline numbers from an analytics document (single
    run or sweep rollup): latency percentiles/counts per flow class and
    total/peak per series — never the raw per-bin arrays, which would
    drown the verdict table in thousands of rows."""
    from repro.obs.analytics import (ANALYTICS_KIND, AnalyticsError,
                                     SERIES_KEYS, load_analytics)

    try:
        doc = load_analytics(path)
    except AnalyticsError as exc:
        raise CompareError(str(exc)) from exc
    out: Dict[str, float] = {"bins": float(doc.get("bins", 0))}
    if doc["kind"] == ANALYTICS_KIND:
        for name, entry in doc["latency"].items():
            for key in ("completed", "interrupted", "cancelled", "open",
                        "p50", "p99", "p999", "mean", "max",
                        "bytes_completed", "bytes_wasted"):
                v = entry.get(key)
                if is_number(v):
                    out[f"latency.{name}.{key}"] = float(v)
        for key in SERIES_KEYS:
            vals = [v for v in (doc["series"].get(key) or [])
                    if is_number(v)]
            if vals:
                out[f"series.{key}.total"] = float(sum(vals))
                out[f"series.{key}.peak"] = float(max(vals))
    else:                                  # rollup
        out["tasks"] = float(len(doc.get("tasks") or []))
        for name, band in doc["latency_bands"].items():
            for key in ("completed", "interrupted", "cancelled", "open"):
                v = band.get(key)
                if is_number(v):
                    out[f"latency.{name}.{key}"] = float(v)
            for q in ("p50", "p99", "p999"):
                sub = band.get(q)
                if isinstance(sub, dict):
                    for edge in ("lo", "p50", "hi"):
                        v = sub.get(edge)
                        if is_number(v):
                            out[f"latency.{name}.{q}.{edge}"] = float(v)
        for key, band in doc["series_bands"].items():
            his = [v for v in (band.get("hi") or []) if is_number(v)]
            if his:
                out[f"series.{key}.peak_hi"] = float(max(his))
    return out


def _bench_timings(doc: object) -> Optional[Dict[str, float]]:
    """Timing map from any of the bench JSON shapes in the repo:

    * ``perf_core_baseline.json``: ``{"benches": {name: {median_s}}}``
    * ``perf_core_timings.json``: ``{"data": {path::name: {median_s}}}``
    * ``emit_report`` JSON: ``{"name", "report", "data": {...}}`` —
      numeric leaves whose path ends in ``_s`` count as timings.

    Bench names are normalised to their last ``::`` segment so a
    timings file gates against a baseline written by hand.
    """
    if not isinstance(doc, dict):
        return None
    table = None
    if isinstance(doc.get("benches"), dict):
        table = doc["benches"]
    elif isinstance(doc.get("data"), dict):
        table = doc["data"]
    if table is None:
        return None
    out: Dict[str, float] = {}
    for raw_name in sorted(table):
        entry = table[raw_name]
        name = str(raw_name).split("::")[-1]
        if is_number(entry):
            out[name] = float(entry)
            continue
        if not isinstance(entry, dict):
            continue
        # One timing per bench — median preferred (what the committed
        # baselines record), mean as fallback — so A and B line up
        # even when one side records more statistics than the other.
        for key in ("median_s", "mean_s"):
            if is_number(entry.get(key)):
                out[name] = float(entry[key])
                break
    return out or None


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _run_artifacts(path: str) -> Dict[str, str]:
    """Map artifact kind → file path for one comparison side."""
    if os.path.isdir(path):
        found: Dict[str, str] = {}
        for kind, fname in (("metrics", METRICS_FILE),
                            ("trace", TRACE_FILE),
                            ("profile", PROFILE_FILE),
                            ("analytics", ANALYTICS_FILE),
                            ("analytics", ANALYTICS_ROLLUP_FILE)):
            full = os.path.join(path, fname)
            if os.path.isfile(full):
                found.setdefault(kind, full)
        for entry in sorted(os.listdir(path)):
            if not entry.endswith(".json") \
                    or entry in (METRICS_FILE, PROFILE_FILE,
                                 ANALYTICS_FILE, ANALYTICS_ROLLUP_FILE):
                continue
            if _bench_timings(_load_json_quiet(os.path.join(path, entry))) \
                    is not None:
                found.setdefault("bench", os.path.join(path, entry))
        if not found:
            raise CompareError(
                f"{path}: no comparable artifacts (looked for "
                f"{METRICS_FILE}, {TRACE_FILE}, {PROFILE_FILE}, "
                f"bench *.json)")
        return found
    if not os.path.isfile(path):
        raise CompareError(f"{path}: no such file or directory")
    if path.endswith(".jsonl"):
        return {"trace": path}
    doc = _load_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "repro.profile":
        return {"profile": path}
    if isinstance(doc, dict) and doc.get("kind") in (
            "repro.analytics", "repro.analytics.rollup"):
        return {"analytics": path}
    if _bench_timings(doc) is not None:
        return {"bench": path}
    if isinstance(doc, dict):
        return {"metrics": path}
    raise CompareError(f"{path}: unrecognised artifact shape")


def _load_json_quiet(path: str) -> object:
    try:
        return _load_json(path)
    except CompareError:
        return None


def compare_runs(path_a: str, path_b: str,
                 threshold: float = DEFAULT_THRESHOLD,
                 min_seconds: float = DEFAULT_MIN_SECONDS,
                 strict: bool = False) -> ComparisonResult:
    """Compare two runs; see the module docstring for semantics."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    arts_a = _run_artifacts(path_a)
    arts_b = _run_artifacts(path_b)
    result = ComparisonResult(path_a, path_b, threshold, min_seconds,
                              strict)

    common = [k for k in ("metrics", "trace", "analytics", "profile",
                          "bench")
              if k in arts_a and k in arts_b]
    for kind in sorted(set(arts_a) ^ set(arts_b)):
        side = "A" if kind in arts_a else "B"
        result.skipped.append(
            f"{kind}: only present in {side} — skipped")
    if not common:
        raise CompareError(
            f"no artifact kind present on both sides "
            f"(A has {sorted(arts_a)}, B has {sorted(arts_b)})")

    if "metrics" in common:
        result.sections.append("metrics")
        a = _flatten_numeric(_load_json(arts_a["metrics"]))
        b = _flatten_numeric(_load_json(arts_b["metrics"]))
        _diff_maps(result, "metrics", "", a, b, wall=False)
    if "trace" in common:
        result.sections.append("spans")
        _diff_maps(result, "spans", "s",
                   _span_distributions(arts_a["trace"]),
                   _span_distributions(arts_b["trace"]), wall=False)
    if "analytics" in common:
        result.sections.append("analytics")
        _diff_maps(result, "analytics", "",
                   _analytics_summary(arts_a["analytics"]),
                   _analytics_summary(arts_b["analytics"]), wall=False)
    if "profile" in common:
        result.sections.append("profile")
        _diff_maps(result, "profile", "s",
                   _profile_hotspots(arts_a["profile"]),
                   _profile_hotspots(arts_b["profile"]), wall=True,
                   floor=min_seconds)
    if "bench" in common:
        result.sections.append("bench")
        a_t = _bench_timings(_load_json(arts_a["bench"])) or {}
        b_t = _bench_timings(_load_json(arts_b["bench"])) or {}
        _diff_maps(result, "bench", "s", a_t, b_t, wall=True)
    return result


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(v: Optional[float], unit: str) -> str:
    if v is None:
        return "-"
    if unit == "s":
        return f"{v:.6f}"
    return f"{v:g}"


def _fmt_rel(rel: Optional[float]) -> str:
    if rel is None:
        return "-"
    return f"{rel * 100.0:+.1f}%"


#: Section-table row cap; the per-kind counts stay exact.
MAX_ROWS_PER_SECTION = 40

_SECTION_TITLES = {
    "metrics": "Metrics (sim-derived)",
    "spans": "Span durations (sim-derived)",
    "analytics": "Analytics: latency percentiles & series (sim-derived)",
    "profile": "Profile hotspots (wall-clock)",
    "bench": "Bench timings (wall-clock)",
}


def render_compare(result: ComparisonResult) -> str:
    """The markdown verdict document."""
    counts = result.counts()
    verdict = "OK" if result.ok else "REGRESSED"
    out: List[str] = [
        "# Run comparison",
        "",
        f"* A: `{result.label_a}`",
        f"* B: `{result.label_b}`",
        f"* wall-clock threshold: ±{result.threshold * 100.0:g}% "
        f"(floor {result.min_seconds:g} s)"
        + ("; strict: sim drift fails too" if result.strict else ""),
        "",
        f"**Verdict: {verdict}** — "
        + (", ".join(f"{counts[k]} {k}(s)" for k in sorted(counts))
           if counts else "no differences"),
        "",
    ]
    for note in result.skipped:
        out.append(f"> note: {note}")
    if result.skipped:
        out.append("")

    order = {"regression": 0, "removed": 1, "added": 2,
             "drift": 3, "improvement": 4}
    for section in result.sections:
        deltas = [d for d in result.deltas if d.section == section]
        out += [f"## {_SECTION_TITLES.get(section, section)}", ""]
        if not deltas:
            out += ["identical.", ""]
            continue
        deltas.sort(key=lambda d: (order.get(d.kind, 9),
                                   -(abs(d.rel) if d.rel is not None
                                     else float("inf")), d.name))
        rows = [[d.name, _fmt(d.a, d.unit), _fmt(d.b, d.unit),
                 _fmt_rel(d.rel), d.kind]
                for d in deltas[:MAX_ROWS_PER_SECTION]]
        out += _md_table(["name", "A", "B", "Δ rel", "class"], rows)
        if len(deltas) > MAX_ROWS_PER_SECTION:
            out.append(f"\n({len(deltas) - MAX_ROWS_PER_SECTION} further "
                       f"rows elided)")
        out.append("")
    return "\n".join(out).rstrip() + "\n"
