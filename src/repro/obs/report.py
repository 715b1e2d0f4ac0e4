"""Run analysis: the ``repro check`` and ``repro report`` commands.

Both consume a JSONL trace written by ``--trace-out`` and turn the raw
event stream into judgement:

* :func:`check_trace` replays the trace through the stock
  :mod:`~repro.obs.invariants` suite; ``repro check`` exits non-zero
  and lists the offending lines if any invariant was violated.
* :func:`render_run_report` produces a markdown run report — lifecycle
  timeline, span-duration statistics, migration/recovery byte
  breakdown per server, and the invariant summary — the artefact a
  reviewer reads *instead of* 100k raw events.

Violation indices are JSONL line numbers, so ``repro check``'s output
is directly greppable against the trace file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.invariants import Checker, InvariantSuite, Violation
from repro.obs.stats import TraceSummary, check_window, percentile
from repro.obs.trace import TraceEvent, iter_jsonl

__all__ = [
    "EmptyTraceError",
    "check_trace",
    "render_check",
    "render_run_report",
]

#: Cap on violations listed in full (the count is always exact).
MAX_LISTED_VIOLATIONS = 50


class EmptyTraceError(ValueError):
    """A trace file with zero events: ``repro check`` / ``repro
    report`` refuse to judge it (exit code 2) rather than emit an
    all-pass verdict or a degenerate report over nothing."""

    def __init__(self, path: str) -> None:
        super().__init__(
            f"{path}: empty trace (0 events) — nothing to analyse; "
            f"was the run executed with --trace-out?")
        self.path = path


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------
def check_trace(path: str,
                checkers: Optional[List[Checker]] = None
                ) -> InvariantSuite:
    """Replay the trace at *path* through an invariant suite (stock
    checkers unless given).  Violation indices are JSONL line numbers.
    Raises :class:`~repro.obs.trace.TraceParseError` on corrupt lines.
    """
    suite = InvariantSuite(checkers)
    for line_no, event in iter_jsonl(path):
        suite.observe(event, line_no)
    suite.finish()
    if suite.events_seen == 0:
        raise EmptyTraceError(path)
    return suite


def render_check(path: str,
                 checkers: Optional[List[Checker]] = None
                 ) -> Tuple[str, int]:
    """The ``repro check`` report: ``(text, exit_code)`` — 0 when every
    invariant holds, 1 when any was violated."""
    suite = check_trace(path, checkers)
    violations = suite.violations
    names = ", ".join(c.name for c in suite.checkers)
    if not violations:
        return (f"{path}: {suite.events_seen} events — all invariants "
                f"hold ({names})"), 0
    lines = [f"{path}: {len(violations)} invariant violation(s) in "
             f"{suite.events_seen} events", ""]
    for v in violations[:MAX_LISTED_VIOLATIONS]:
        lines.append(v.describe())
    if len(violations) > MAX_LISTED_VIOLATIONS:
        lines.append(f"... and {len(violations) - MAX_LISTED_VIOLATIONS} "
                     f"more")
    failed = sorted({v.checker for v in violations})
    lines += ["", f"FAIL: {', '.join(failed)}"]
    return "\n".join(lines), 1


def _fmt_gb(v: float) -> str:
    return f"{v / 1e9:.3f}"


def _md_table(headers: Sequence[str],
              rows: Sequence[Sequence[object]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def render_run_report(path: str, max_timeline_rows: int = 40,
                      since: Optional[float] = None,
                      until: Optional[float] = None) -> str:
    """The ``repro report`` markdown document for one trace file.

    *since*/*until* restrict the presentation sections (timeline,
    span durations, byte breakdown) to the half-open window
    ``[since, until)`` — the same predicate as ``repro stats`` and
    ``repro timeline``.  The invariant checkers always replay the
    **full** stream: a window is a view, and a flow that started
    before it is not an accounting violation.
    """
    check_window(since, until)
    all_events: List[TraceEvent] = []
    suite = InvariantSuite()
    for line_no, event in iter_jsonl(path):
        all_events.append(event)
        suite.observe(event, line_no)
    suite.finish()
    if not all_events:
        raise EmptyTraceError(path)
    summary = TraceSummary(all_events, since, until)
    t0, t1 = summary.extent()

    out: List[str] = [f"# Run report — {path}", ""]
    extent = ("" if t0 is None
              else f" over t = [{t0:g}, {t1:g}] s of simulated time")
    window = ("" if since is None and until is None else
              f" (window [{'-' if since is None else f'{since:g}'}, "
              f"{'-' if until is None else f'{until:g}'}) of "
              f"{len(all_events)} total; invariants checked over the "
              f"full stream)")
    out.append(f"{len(summary.events)} trace events across "
               f"{len(summary.kinds)} event kinds{extent}{window}.")
    out.append("")

    # ---------------- lifecycle timeline -----------------------------
    out += ["## Lifecycle timeline", ""]
    rows: List[Tuple[float, str, str]] = [
        (e.get("t") or 0.0, str(e.get("kind")), _milestone_detail(e))
        for e in summary.milestones]
    for s in summary.spans:
        if s.parent_id is None and s.name != "flow":
            detail = ("open (never ended)" if s.open
                      else "ended, no duration" if s.duration is None
                      else f"duration {s.duration:g} s")
            rows.append((s.t_begin or 0.0, f"span {s.name}",
                         f"id {s.span_id}: {detail}"))
    rows.sort(key=lambda r: r[0])
    if rows:
        shown = rows[:max_timeline_rows]
        out += _md_table(["t (s)", "what", "detail"],
                         [[f"{t:.1f}", what, detail]
                          for t, what, detail in shown])
        if len(rows) > max_timeline_rows:
            out.append(f"\n({len(rows) - max_timeline_rows} further "
                       f"timeline rows elided)")
    else:
        out.append("(no lifecycle milestones in this trace)")
    out.append("")

    # ---------------- span durations ----------------------------------
    out += ["## Span durations", ""]
    if summary.spans:
        durations = summary.span_durations()
        open_count: Dict[str, int] = {}
        for s in summary.spans:
            if s.open:
                open_count[s.name] = open_count.get(s.name, 0) + 1
        srows = []
        for name in sorted(set(durations) | set(open_count)):
            ds = durations.get(name, [])
            if ds:
                srows.append([name, len(ds), open_count.get(name, 0),
                              f"{ds[0]:g}", f"{percentile(ds, 0.5):g}",
                              f"{sum(ds) / len(ds):g}",
                              f"{ds[-1]:g}", f"{sum(ds):g}"])
            else:
                srows.append([name, 0, open_count.get(name, 0),
                              "-", "-", "-", "-", "-"])
        out += _md_table(["span", "closed", "open", "min (s)", "p50 (s)",
                          "mean (s)", "max (s)", "total (s)"], srows)
    else:
        out.append("(no spans in this trace — re-run with a current "
                   "build to get lifecycle spans)")
    out.append("")

    # ---------------- byte breakdown ----------------------------------
    out += ["## Migration & recovery bytes per server", ""]
    columns = [summary.bytes_in[c]
               for c in ("migration", "recovery", "addition")]
    ranks = sorted(set().union(*columns),
                   key=lambda r: ((0, r, "") if isinstance(r, int)
                                  else (1, 0, str(r))))
    if ranks:
        brows = [[rank, *(_fmt_gb(col.get(rank, 0.0)) for col in columns)]
                 for rank in ranks]
        brows.append(["**total**",
                      *(_fmt_gb(sum(col.values())) for col in columns)])
        out += _md_table(["rank", "selective migration in (GB)",
                          "recovery in (GB)", "addition migration (GB)"],
                         brows)
    else:
        out.append("(no migration or recovery traffic in this trace)")
    out.append("")

    # ---------------- invariants --------------------------------------
    out += ["## Invariants", ""]
    violations = suite.violations
    irows = []
    per_checker: Dict[str, int] = {}
    for v in violations:
        per_checker[v.checker] = per_checker.get(v.checker, 0) + 1
    for checker in suite.checkers:
        n = per_checker.get(checker.name, 0)
        irows.append([checker.name,
                      "PASS" if n == 0 else "**FAIL**", n])
    out += _md_table(["checker", "status", "violations"], irows)
    if violations:
        out.append("")
        for v in violations[:MAX_LISTED_VIOLATIONS]:
            out.append(f"- {v.describe()}")
        if len(violations) > MAX_LISTED_VIOLATIONS:
            out.append(f"- ... and "
                       f"{len(violations) - MAX_LISTED_VIOLATIONS} more")
    return "\n".join(out)


def _milestone_detail(e: TraceEvent) -> str:
    kind = e.get("kind")
    if kind == "power.resize":
        on = e.get("powered_on") or []
        off = e.get("powered_off") or []
        parts = [f"v{e.get('version')}: {e.get('active')} active"]
        if on:
            parts.append(f"+{on}")
        if off:
            parts.append(f"-{off}")
        return " ".join(parts)
    if kind == "version.advance":
        fp = " (full power)" if e.get("full_power") else ""
        return f"v{e.get('version')}: {e.get('active')} active{fp}"
    if kind == "server.fail":
        return (f"rank {e.get('rank')} crashed, lost "
                f"{e.get('lost_objects')} objects "
                f"({_fmt_gb(e.get('lost_bytes') or 0.0)} GB)")
    if kind == "migration.full":
        return (f"full re-integration moved "
                f"{_fmt_gb(e.get('nbytes') or 0.0)} GB "
                f"at v{e.get('version')}")
    if kind == "migration.addition":
        return (f"rank {e.get('rank')} re-added, pulled "
                f"{_fmt_gb(e.get('nbytes') or 0.0)} GB")
    if kind == "recovery.rereplicate":
        return (f"rank {e.get('rank')}: re-replicated "
                f"{_fmt_gb(e.get('nbytes') or 0.0)} GB")
    return ""
