"""Bench-vs-bench comparison: the ``repro compare`` gate.

Compares two bench JSON files and renders a markdown verdict.  A file
holds its timings in one of three shapes (:func:`_bench_timings`): the
committed baselines' ``{"benches": …}``, the pytest-benchmark timings
dump's ``{"data": {path::name: …}}``, or an ``emit_report`` document
such as ``engine_scale.json``.

Every timing is wall-clock and noisy by nature, so a bench regresses
only when B is slower than A by more than a relative *threshold*;
faster by more than it is an improvement, anything in between drift,
and a bench on one side only is added or removed.  Comparing the
simulation's own numbers between runs is not this module's job: those
are byte-reproducible, and the sha256 goldens pin them.

Exit codes: 0 = OK, 1 = regression(s) beyond threshold.  An unusable
file (missing, not JSON, no timings, a timing that is not a finite
number >= 0) raises :class:`CompareError`.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Optional

from repro.obs.report import _md_table
from repro.obs.stats import is_number

__all__ = [
    "CompareError",
    "Delta",
    "ComparisonResult",
    "compare_runs",
    "render_compare",
    "DEFAULT_THRESHOLD",
]

#: Default relative regression threshold (0.25 = fail when B is more
#: than 25% slower than A).
DEFAULT_THRESHOLD = 0.25


class CompareError(ValueError):
    """Unusable comparison input (a missing file, invalid JSON, no
    bench timings, or a timing that is not a finite number >= 0)."""


class Delta:
    """One compared bench timing."""

    __slots__ = ("name", "a", "b", "kind")

    def __init__(self, name: str, a: Optional[float], b: Optional[float],
                 kind: str) -> None:
        self.name = name
        self.a = a
        self.b = b
        #: "regression" | "improvement" | "drift" | "added" | "removed"
        self.kind = kind

    @property
    def rel(self) -> Optional[float]:
        """Relative change (B-A)/A, when defined."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)


class ComparisonResult:
    """Everything ``repro compare`` found, pre-verdict."""

    def __init__(self, label_a: str, label_b: str,
                 threshold: float) -> None:
        self.label_a = label_a
        self.label_b = label_b
        self.threshold = threshold
        self.deltas: List[Delta] = []

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.kind == "regression"]

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


def _diff_maps(result: ComparisonResult, a: Mapping[str, float],
               b: Mapping[str, float]) -> None:
    """Classify every bench of two name→seconds maps against the
    result's threshold; equal timings add nothing."""
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va is None:
            result.deltas.append(Delta(name, None, vb, "added"))
            continue
        if vb is None:
            result.deltas.append(Delta(name, va, None, "removed"))
            continue
        if va == vb:
            continue
        rel = (vb - va) / abs(va) if va != 0 else float("inf")
        if rel > result.threshold:
            kind = "regression"
        elif rel < -result.threshold:
            kind = "improvement"
        else:
            kind = "drift"
        result.deltas.append(Delta(name, va, vb, kind))


def _bench_timings(doc: object, path: str) -> Optional[Dict[str, float]]:
    """Timing map from any of the bench JSON shapes in the repo:

    * ``perf_core_baseline.json``: ``{"benches": {name: {median_s}}}``
    * ``perf_core_timings.json``: ``{"data": {path::name: {median_s}}}``
    * ``emit_report`` JSON: ``{"name", "report", "data": {...}}``.

    In each table an entry counts when it is a number, or a mapping
    with a numeric ``median_s`` (else ``mean_s``); nothing else is read.
    ``None`` when *doc* has no such table.  A timing that is not finite
    or is negative raises :class:`CompareError` naming *path* and the
    bench: NaN compares false with every threshold, so it would pass.

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
        if isinstance(entry, dict):
            # One timing per bench — median preferred (what the
            # committed baselines record), mean as fallback — so A and
            # B line up even when one side records more statistics.
            entry = next((entry[key] for key in ("median_s", "mean_s")
                          if is_number(entry.get(key))), None)
        if not is_number(entry):
            continue
        if not (math.isfinite(entry) and entry >= 0):
            raise CompareError(f"{path}: bench {raw_name!r} has timing "
                               f"{entry!r}, not a finite number >= 0")
        out[name] = float(entry)
    return out or None


def _load_timings(path: str) -> Dict[str, float]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise CompareError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise CompareError(f"{path}: {exc}") from exc
    timings = _bench_timings(doc, path)
    if timings is None:
        raise CompareError(f"{path}: no bench timings (expected a "
                           f"'benches' or 'data' table of seconds)")
    return timings


def compare_runs(path_a: str, path_b: str,
                 threshold: float = DEFAULT_THRESHOLD) -> ComparisonResult:
    """Compare two bench files; see the module docstring for semantics."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError("threshold must be a finite number >= 0")
    result = ComparisonResult(path_a, path_b, threshold)
    _diff_maps(result, _load_timings(path_a), _load_timings(path_b))
    return result


def _fmt(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.6f}"


def _fmt_rel(rel: Optional[float]) -> str:
    return "-" if rel is None else f"{rel * 100.0:+.1f}%"


#: Table row cap; the per-kind counts stay exact.
MAX_ROWS = 40


def render_compare(result: ComparisonResult) -> str:
    """The markdown verdict document."""
    counts = result.counts()
    verdict = "OK" if result.ok else "REGRESSED"
    out: List[str] = [
        "# Run comparison",
        "",
        f"* A: `{result.label_a}`",
        f"* B: `{result.label_b}`",
        f"* wall-clock threshold: ±{result.threshold * 100.0:g}%",
        "",
        f"**Verdict: {verdict}** — "
        + (", ".join(f"{counts[k]} {k}(s)" for k in sorted(counts))
           if counts else "no differences"),
        "",
        "## Bench timings (wall-clock)",
        "",
    ]
    if not result.deltas:
        return "\n".join(out + ["identical."]) + "\n"
    order = {"regression": 0, "removed": 1, "added": 2,
             "drift": 3, "improvement": 4}
    deltas = sorted(result.deltas, key=lambda d: (
        order[d.kind],
        -(abs(d.rel) if d.rel is not None else float("inf")), d.name))
    rows = [[d.name, _fmt(d.a), _fmt(d.b), _fmt_rel(d.rel), d.kind]
            for d in deltas[:MAX_ROWS]]
    out += _md_table(["name", "A", "B", "Δ rel", "class"], rows)
    if len(deltas) > MAX_ROWS:
        out.append(f"\n({len(deltas) - MAX_ROWS} further rows elided)")
    return "\n".join(out).rstrip() + "\n"
