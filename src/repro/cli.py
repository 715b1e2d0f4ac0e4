"""Command-line interface: run any paper experiment from the shell.

::

    python -m repro info --n 10 --replicas 2
    python -m repro layout --n 10 --B 10000
    python -m repro agility
    python -m repro three-phase --mode selective --scale 0.5
    python -m repro chaos --seed 7 --scale 0.25
    python -m repro fig5
    python -m repro trace --which CC-a
    python -m repro sweep --kind chaos --seeds 0,1,2,3 --workers 4 --out sweep-out
    python -m repro stats run.jsonl --kind migration. --top 5
    python -m repro check run.jsonl
    python -m repro report run.jsonl --since 60 --until 120
    python -m repro timeline run.jsonl --bin 10 --json analytics.json
    python -m repro chaos --seed 7 --profile-out prof.json
    python -m repro profile prof.json --top 10 --collapsed prof.folded
    python -m repro compare baseline.json timings.json --threshold 200

Each subcommand renders the same report the corresponding benchmark
emits; heavy runs expose their scale/size knobs so a laptop shell can
finish in seconds.

Every experiment subcommand also takes the observability flags:

``--trace-out PATH``
    Stream the run's structured trace events (engine ticks, flow
    start/finish, migrations, power transitions, ...) to *PATH* as
    JSON Lines.  Inspect afterwards with ``python -m repro stats``.

``--stats``
    Append the metrics-registry table (counters and gauges: simulation
    state, same-seed deterministic) to the report.  For wall-clock
    questions use ``--profile-out``.

``--check``
    Attach the online invariant checkers
    (:mod:`repro.obs.invariants`) to the run's live event stream and
    exit 1 if any invariant is violated — CI's regression tripwire.

``--profile-out PATH``
    Attach the instrumentation profiler
    (:mod:`repro.obs.profile`) and write the hierarchical wall-clock +
    sim-time profile to *PATH* as JSON.  Inspect with ``python -m
    repro profile PATH``; the trace stays byte-identical (wall-clock
    data never enters the event stream).  On ``repro sweep`` the flag
    instead profiles every task and writes the sweep-level hotspot
    rollup to *PATH*.

Command functions build and *return* their report text; only
:func:`main` writes to stdout, so the library layer stays print-free
and the reports remain embeddable (tests, notebooks, benchmarks).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.core.elastic import ElasticConsistentHash
from repro.core.layout import CapacityPlan
from repro.faults import FaultPlan, render_chaos_report, run_chaos
from repro.serving import render_serve_report, run_serve
from repro.kvstore.harness import render_kv_churn_report, run_kv_churn
from repro.experiments import (
    run_layout_versions,
    run_resize_agility,
    run_three_phase,
    run_trace_analysis,
)
from repro.metrics.report import (
    render_distribution,
    render_series,
    render_table,
)
from repro.obs import JSONLSink, OBS
from repro.obs.analytics import (
    AnalyticsError,
    analytics_from_trace,
    dump_analytics,
    load_analytics,
    render_timeline,
)
from repro.obs.compare import CompareError, compare_runs, render_compare
from repro.obs.invariants import CheckerSink
from repro.obs.profile import (
    ProfileError,
    collapsed_stacks,
    load_profile,
    profiling,
    render_profile,
)
from repro.obs.report import (
    EmptyTraceError,
    render_check,
    render_run_report,
)
from repro.obs.stats import render_trace_stats
from repro.obs.trace import TraceParseError
from repro.runner import SweepRunner, TaskSpec, render_sweep_report

__all__ = ["main", "build_parser"]


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write the run's trace events to PATH as JSONL")
    p.add_argument("--stats", action="store_true",
                   help="append the metrics table (counters and gauges)")
    p.add_argument("--check", action="store_true",
                   help="run the invariant checkers live against this "
                        "run's events; exit 1 on any violation")
    p.add_argument("--profile-out", metavar="PATH", default=None,
                   help="attach the instrumentation profiler and write "
                        "the wall-clock + sim-time profile to PATH as "
                        "JSON (inspect with 'repro profile PATH')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elastic Consistent Hashing (IPDPS 2017) — "
                    "reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="cluster configuration summary")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--B", type=int, default=10_000)
    _add_obs_flags(p)

    p = sub.add_parser("layout", help="equal-work weights + capacity plan")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--B", type=int, default=10_000)
    p.add_argument("--objects", type=int, default=20_000,
                   help="objects to place for the measured distribution")
    _add_obs_flags(p)

    p = sub.add_parser("agility", help="Figure 2: resize agility")
    p.add_argument("--objects", type=int, default=2_000)
    _add_obs_flags(p)

    p = sub.add_parser("three-phase",
                       help="Figures 3/7: the 3-phase workload")
    p.add_argument("--mode", default="selective",
                   choices=["none", "original", "full", "selective"])
    p.add_argument("--scale", type=float, default=0.5)
    _add_obs_flags(p)

    p = sub.add_parser("chaos",
                       help="replay the 3-phase workload under a "
                            "deterministic fault plan with live "
                            "invariant checking; exit 1 unless the "
                            "run ends healthy")
    p.add_argument("--seed", type=int, default=7,
                   help="fault-plan seed (same seed = byte-identical "
                        "run)")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--off-count", type=int, default=4,
                   help="servers powered down after phase 1")
    p.add_argument("--plan", metavar="PLAN.json", default=None,
                   help="load the fault plan from JSON instead of "
                        "generating it from --seed")
    p.add_argument("--audit-every", type=float, default=10.0,
                   help="seconds between replication audits")
    _add_obs_flags(p)

    p = sub.add_parser("serve",
                       help="replay an elastic resize under open- and "
                            "closed-loop client load with admission "
                            "control; reports client-perceived "
                            "p50/p99/p999 and an SLO verdict; exit 1 "
                            "unless queues stay bounded and the SLO "
                            "holds")
    p.add_argument("--seed", type=int, default=7,
                   help="placement/arrival seed (same seed = "
                        "byte-identical run)")
    p.add_argument("--controller", default="adaptive",
                   choices=["unthrottled", "fixed", "adaptive"],
                   help="flow-control policy at the front door")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--off-count", type=int, default=4,
                   help="servers powered down at --resize-at")
    p.add_argument("--clients", type=int, default=200,
                   help="closed-loop clients (one outstanding request "
                        "each)")
    p.add_argument("--users", type=int, default=4_000_000,
                   help="open-loop user population; offered rate is "
                        "users * per-user-rate requests/s")
    p.add_argument("--per-user-rate", type=float, default=5e-5,
                   help="per-user request rate in requests/s")
    p.add_argument("--write-ratio", type=float, default=0.3)
    p.add_argument("--duration", type=float, default=180.0)
    p.add_argument("--resize-at", type=float, default=60.0)
    p.add_argument("--resize-back-at", type=float, default=120.0)
    p.add_argument("--slo-p99", type=float, default=3.0,
                   help="p99 latency SLO in seconds (pooled over both "
                        "populations)")
    _add_obs_flags(p)

    p = sub.add_parser("kvchurn",
                       help="drive the replicated KV store through "
                            "membership churn under injected faults "
                            "with live consistency checking; exit 1 "
                            "unless the run ends healthy")
    p.add_argument("--seed", type=int, default=7,
                   help="fault-plan + workload seed (same seed = "
                        "byte-identical run)")
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--clients", type=int, default=4,
                   help="seeded client sessions issuing ops each tick")
    p.add_argument("--keys", type=int, default=24,
                   help="keyspace size (split strings/counters/lists)")
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--churn-every", type=float, default=30.0,
                   help="seconds between propose/commit view changes")
    p.add_argument("--plan", metavar="PLAN.json", default=None,
                   help="load the fault plan from JSON instead of "
                        "generating it from --seed")
    p.add_argument("--audit-every", type=float, default=10.0,
                   help="seconds between consistency audits")
    _add_obs_flags(p)

    p = sub.add_parser("fig5", help="Figure 5: layout across versions")
    p.add_argument("--objects-v1", type=int, default=20_000)
    p.add_argument("--objects-v2", type=int, default=25_000)
    _add_obs_flags(p)

    p = sub.add_parser("trace", help="Figures 8/9 + Table II")
    p.add_argument("--which", default="CC-a", choices=["CC-a", "CC-b"])
    p.add_argument("--seed", type=int, default=None)
    _add_obs_flags(p)

    p = sub.add_parser("sweep",
                       help="run independent seeded tasks, one process "
                            "per attempt; the aggregate report is "
                            "byte-identical for any --workers count; "
                            "exit 1 on any unhealthy run")
    p.add_argument("--kind", default="chaos",
                   choices=["chaos", "trace", "three-phase"],
                   help="experiment kind run once per seed")
    p.add_argument("--seeds", default="0,1,2,3", metavar="S1,S2,...",
                   help="comma-separated seed list; one task per seed")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="task processes run at once, >= 1 "
                        "(default: cpu count)")
    p.add_argument("--out", metavar="DIR", default="sweep-out",
                   help="output directory: per-task run dirs plus "
                        "sweep.json / merged.jsonl / run_info.json")
    p.add_argument("--plan", metavar="PLAN.json", default=None,
                   help="fault plan applied to every chaos task "
                        "(instead of generating one per seed)")
    p.add_argument("--timeout", type=float, default=None, metavar="T",
                   help="per-attempt wall-clock budget in seconds "
                        "(finite, > 0); an overrunning attempt is "
                        "killed and retried like a crash")
    p.add_argument("--n", type=int, default=10,
                   help="chaos: cluster size")
    p.add_argument("--replicas", type=int, default=2,
                   help="chaos: replication factor")
    p.add_argument("--scale", type=float, default=0.25,
                   help="chaos / three-phase: workload scale")
    p.add_argument("--off-count", type=int, default=4,
                   help="chaos: servers powered down after phase 1")
    p.add_argument("--which", default="CC-a", choices=["CC-a", "CC-b"],
                   help="trace: which synthetic trace to regenerate")
    p.add_argument("--mode", default="selective",
                   choices=["none", "original", "full", "selective"],
                   help="three-phase: re-integration mode")
    p.add_argument("--since", type=float, default=None, metavar="T",
                   help="aggregate: count per-task events in the "
                        "half-open window [T, --until)")
    p.add_argument("--until", type=float, default=None, metavar="T",
                   help="aggregate: count per-task events at "
                        "simulation time < T seconds (exclusive)")
    p.add_argument("--profile-out", metavar="PATH", default=None,
                   help="profile every task (per-task profile.json) "
                        "and write the sweep-level hotspot rollup, "
                        "aggregated by task id, to PATH")

    p = sub.add_parser("stats",
                       help="summarise a JSONL trace written by --trace-out")
    p.add_argument("trace_file", metavar="TRACE.jsonl",
                   help="trace file produced by --trace-out")
    p.add_argument("--kind", default=None,
                   help="only this event kind (trailing '.' = prefix match,"
                        " e.g. 'migration.')")
    p.add_argument("--since", type=float, default=None, metavar="T",
                   help="only events in the half-open window "
                        "[T, --until): simulation time >= T seconds")
    p.add_argument("--until", type=float, default=None, metavar="T",
                   help="only events at simulation time < T seconds "
                        "(exclusive upper bound)")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="keep only the N kinds with the largest byte "
                        "totals, sorted by bytes descending")

    p = sub.add_parser("check",
                       help="run the invariant checkers over a JSONL "
                            "trace; exit 1 on any violation")
    p.add_argument("trace_file", metavar="TRACE.jsonl",
                   help="trace file produced by --trace-out")

    p = sub.add_parser("report",
                       help="render a markdown run report (timeline, "
                            "span durations, byte breakdown, invariants) "
                            "from a JSONL trace")
    p.add_argument("trace_file", metavar="TRACE.jsonl",
                   help="trace file produced by --trace-out")
    p.add_argument("--since", type=float, default=None, metavar="T",
                   help="presentation window [T, --until), half-open; "
                        "invariants always check the full stream")
    p.add_argument("--until", type=float, default=None, metavar="T",
                   help="presentation window upper bound (exclusive)")

    p = sub.add_parser("timeline",
                       help="build windowed time-series, flow-latency "
                            "percentiles and critical paths from a "
                            "JSONL trace (or re-render a saved "
                            "analytics.json); optionally emit the "
                            "analytics JSON document")
    p.add_argument("input", metavar="TRACE.jsonl|analytics.json",
                   help="a JSONL trace written by --trace-out, or a "
                        "previously saved repro.analytics JSON "
                        "document (re-rendered without rebuilding)")
    p.add_argument("--bin", type=float, default=10.0, metavar="S",
                   dest="bin_seconds",
                   help="time-series bin width in simulated seconds "
                        "(default 10); bins are half-open, anchored "
                        "at --since (or 0)")
    p.add_argument("--since", type=float, default=None, metavar="T",
                   help="analysis window [T, --until), half-open — "
                        "the same predicate as repro stats")
    p.add_argument("--until", type=float, default=None, metavar="T",
                   help="analysis window upper bound (exclusive)")
    p.add_argument("--json", metavar="PATH", default=None,
                   dest="json_out",
                   help="write the versioned repro.analytics JSON "
                        "document to PATH (canonical bytes: "
                        "same-seed runs produce identical files)")
    p.add_argument("--check-only", action="store_true",
                   help="validate the input and print a one-line "
                        "summary instead of the full report; exit 0 "
                        "iff the document is structurally sound")

    p = sub.add_parser("profile",
                       help="render the hotspot report for a profile "
                            "written by --profile-out (top-N self-time "
                            "table, engine event dispatch rates)")
    p.add_argument("profile_file", metavar="PROFILE.json",
                   help="profile document written by --profile-out")
    p.add_argument("--top", type=int, default=15, metavar="N",
                   help="hotspot rows to show (default 15)")
    p.add_argument("--collapsed", metavar="PATH", default=None,
                   help="also write flamegraph collapsed stacks "
                        "('frame;frame N' lines, flamegraph.pl / "
                        "speedscope compatible) to PATH, or '-' to "
                        "print them instead of the report")

    p = sub.add_parser("compare",
                       help="gate the bench timings of one bench "
                            "JSON file against another; exit 1 on any "
                            "bench slower beyond the threshold")
    p.add_argument("run_a", metavar="BASELINE.json",
                   help="baseline bench JSON (e.g. a committed "
                        "*_baseline.json)")
    p.add_argument("run_b", metavar="TIMINGS.json",
                   help="candidate bench JSON (e.g. a fresh --json "
                        "bench dump)")
    p.add_argument("--threshold", type=float, default=25.0,
                   metavar="PCT",
                   help="relative regression threshold in percent, "
                        "finite and >= 0 (default 25)")

    return parser


def _facade(args) -> ElasticConsistentHash:
    # The library lets tests build a cluster too small for its replica
    # count (every locate then raises); the CLI refuses it up front.
    if args.n < args.replicas:
        raise ValueError(f"--n {args.n} servers cannot hold "
                         f"--replicas {args.replicas}")
    return ElasticConsistentHash(n=args.n, replicas=args.replicas, B=args.B)


def _cmd_info(args) -> str:
    ech = _facade(args)
    return "\n".join([
        ech.describe(),
        f"primary ranks : 1..{ech.p}",
        f"minimum power : {ech.min_active}/{ech.n} servers "
        f"({100 * ech.min_active / ech.n:.0f}%)",
        f"ring vnodes   : {ech.ring.num_vnodes}",
    ])


def _cmd_layout(args) -> str:
    ech = _facade(args)
    if args.objects < 1:
        raise ValueError(f"objects must be >= 1 (got {args.objects}): "
                         f"nothing placed is an all-zero distribution")
    layout = ech.layout
    counts = ech.blocks_per_rank(range(args.objects))
    plan = CapacityPlan.for_layout(layout)
    return "\n".join([
        render_table(
            ["rank", "role", "vnodes (weight)", f"blocks of {args.objects}"],
            [[r, "primary" if layout.is_primary(r) else "secondary",
              layout.weight_of(r), counts[r]] for r in layout.ranks],
            title="equal-work layout (§III-C)"),
        "",
        render_distribution(counts, width=40,
                            title="measured block distribution"),
        "",
        "capacity tiers (§III-D): "
        + ", ".join(f"rank {r}: {plan.capacity_of(r) / 1e12:.2f} TB"
                    for r in layout.ranks),
    ])


def _cmd_agility(args) -> str:
    result = run_resize_agility(objects=args.objects)
    grid = list(range(0, int(result.duration) + 1, 15))
    return "\n".join([
        render_series(
            grid,
            {"ideal": list(result.ideal.sample(grid)),
             "original CH": list(result.original_ch.sample(grid)),
             "elastic CH": list(result.elastic.sample(grid))},
            time_label="t(s)",
            title="Figure 2 — active servers vs time"),
        "",
        f"shrink lag: original {result.lag_seconds():.0f} "
        f"server-s, elastic {result.elastic_lag_seconds():.0f} server-s",
    ])


def _cmd_three_phase(args) -> str:
    r = run_three_phase(args.mode, scale=args.scale)
    if not r.finished:
        raise SystemExit(
            f"repro three-phase: {r.unfinished[0]} unfinished after "
            f"{r.duration:.0f} simulated s (completed: "
            f"{', '.join(r.phase_ends) or 'none'})")
    p2 = r.phase_ends["phase2"]
    return "\n".join([
        f"mode={args.mode} scale={args.scale}",
        f"phase ends: { {k: round(v) for k, v in r.phase_ends.items()} }",
        f"peak throughput      : {max(r.throughput) / 1e6:.1f} MB/s",
        f"mean phase-3         : "
        f"{r.mean_throughput(p2, r.phase_ends['phase3']) / 1e6:.1f} MB/s",
        f"recovery after p2    : {r.recovery_time_after(p2):.1f} s",
        f"migrated             : {r.migrated_bytes / 1e9:.2f} GB",
        f"re-replicated        : {r.rereplicated_bytes / 1e9:.2f} GB",
    ])


def _load_plan(args) -> Optional[FaultPlan]:
    """The ``--plan PLAN.json`` of chaos / kvchurn / sweep, if given."""
    if not args.plan:
        return None
    try:
        return FaultPlan.load(args.plan)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro {args.command}: bad --plan file: {exc}")


def _cmd_chaos(args):
    # Returns (report, exit_code): 0 healthy, 1 degraded or violated.
    result = run_chaos(seed=args.seed, n=args.n,
                       replicas=args.replicas, scale=args.scale,
                       off_count=args.off_count, plan=_load_plan(args),
                       audit_every=args.audit_every)
    return render_chaos_report(result), (0 if result.ok else 1)


def _cmd_serve(args):
    # Returns (report, exit_code): 0 healthy, 1 unbounded queues,
    # violated invariants, or a missed SLO.
    result = run_serve(seed=args.seed, controller=args.controller,
                       n=args.n, replicas=args.replicas,
                       off_count=args.off_count,
                       clients=args.clients, users=args.users,
                       per_user_rate=args.per_user_rate,
                       write_ratio=args.write_ratio,
                       duration=args.duration,
                       resize_at=args.resize_at,
                       resize_back_at=args.resize_back_at,
                       slo_p99=args.slo_p99)
    return render_serve_report(result), (0 if result.ok else 1)


def _cmd_kvchurn(args):
    # Returns (report, exit_code): 0 healthy, 1 degraded or violated.
    result = run_kv_churn(seed=args.seed, nodes=args.nodes,
                          replicas=args.replicas,
                          clients=args.clients, keys=args.keys,
                          duration=args.duration,
                          churn_every=args.churn_every,
                          plan=_load_plan(args),
                          audit_every=args.audit_every)
    return render_kv_churn_report(result), (0 if result.ok else 1)


def _cmd_fig5(args) -> str:
    res = run_layout_versions(objects_v1=args.objects_v1,
                              objects_v2=args.objects_v2)
    parts: List[str] = []
    for label, dist in res.distributions.items():
        parts.append(render_distribution(dist, width=40,
                                         title=f"-- {label} --"))
        parts.append("")
    parts.append(f"re-integrated {res.reintegration_objects} objects "
                 f"({res.reintegration_bytes / 1e9:.2f} GB); "
                 f"v1 shape correlation {res.v1_shape_correlation:.4f}")
    return "\n".join(parts)


def _cmd_trace(args) -> str:
    exp = run_trace_analysis(args.which, seed=args.seed)
    series = exp.figure_series()
    minutes = [int(m) for m in exp.window_minutes()]
    rows = [["ideal", round(exp.analysis.ideal_machine_hours, 1), 1.0]]
    for name, res in exp.analysis.results.items():
        rows.append([name, round(res.machine_hours, 1),
                     round(res.relative_machine_hours, 3)])
    return "\n".join([
        render_series(
            minutes[::10],
            {k: list(np.asarray(v)[::10]) for k, v in series.items()},
            time_label="t(min)",
            title=f"{args.which}: active servers (250-minute window)"),
        "",
        render_table(["policy", "machine hours", "relative to ideal"],
                     rows, title="Table II row"),
    ])


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"repro sweep: bad --seeds {text!r} "
                         f"(expected comma-separated integers)")
    if not seeds:
        raise SystemExit("repro sweep: --seeds is empty")
    if len(set(seeds)) != len(seeds):
        raise SystemExit(f"repro sweep: duplicate seed in --seeds {text!r}")
    return seeds


def _cmd_sweep(args):
    # Returns (report, exit_code): 0 iff every task ran and is healthy.
    seeds = _parse_seeds(args.seeds)
    plan = _load_plan(args)
    plan_json = plan.to_json() if plan is not None else None
    if args.kind == "chaos":
        config = {"n": args.n, "replicas": args.replicas,
                  "scale": args.scale, "off_count": args.off_count}
    elif args.kind == "trace":
        config = {"which": args.which}
    else:
        config = {"mode": args.mode, "scale": args.scale}
    specs = [TaskSpec(task_id=f"{args.kind}-s{seed:03d}",
                      kind=args.kind, seed=seed, config=config,
                      plan=plan_json)
             for seed in seeds]
    runner = SweepRunner(
        workers=(args.workers if args.workers is not None
                 else os.cpu_count() or 1),
        task_timeout=args.timeout,
        since=args.since, until=args.until,
        profile=args.profile_out is not None)
    result = runner.run(specs, args.out)
    report = render_sweep_report(result)
    if args.profile_out is not None \
            and result.profile_rollup_path is not None:
        rollup = result.profile_rollup_path
        if os.path.abspath(args.profile_out) != os.path.abspath(
                str(rollup)):
            with open(rollup, encoding="utf-8") as src, \
                    open(args.profile_out, "w", encoding="utf-8") as dst:
                dst.write(src.read())
        report += f"\n- profile rollup: {args.profile_out}"
    return report, (0 if result.ok else 1)


def _cmd_stats(args) -> str:
    return render_trace_stats(args.trace_file, kind=args.kind,
                              since=args.since, until=args.until,
                              top=args.top)


def _cmd_check(args):
    # Returns (text, exit_code): 0 clean, 1 on violations.
    return render_check(args.trace_file)


def _cmd_report(args) -> str:
    return render_run_report(args.trace_file, since=args.since,
                             until=args.until)


def _cmd_timeline(args) -> str:
    """``repro timeline``: build (from a trace) or reload (from a
    saved document) the analytics, then render/emit as asked."""
    if args.input.endswith(".json"):
        doc = load_analytics(args.input)
        built = False
    else:
        doc = analytics_from_trace(args.input,
                                   bin_seconds=args.bin_seconds,
                                   since=args.since,
                                   until=args.until)
        built = True

    if args.check_only:
        verb = "built" if built else "validated"
        report = (f"{args.input}: {verb} {doc['kind']} v"
                  f"{doc['version']} — {doc['bins']} bin(s), OK")
    else:
        report = render_timeline(doc)
    if args.json_out is not None:
        dump_analytics(doc, args.json_out)
        report += f"\n- analytics written to {args.json_out}"
    return report


def _cmd_profile(args):
    doc = load_profile(args.profile_file)
    report = render_profile(doc, top=args.top)
    if args.collapsed is not None:
        lines = collapsed_stacks(doc["root"])
        if args.collapsed == "-":
            return "\n".join(lines)
        with open(args.collapsed, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        report += (f"\n\ncollapsed stacks ({len(lines)} frames) "
                   f"written to {args.collapsed}")
    return report


def _cmd_compare(args):
    # Returns (markdown, exit_code): 0 OK, 1 regression(s).  A
    # threshold that is not finite and >= 0 is compare_runs' ValueError:
    # one line, exit 1.
    result = compare_runs(args.run_a, args.run_b,
                          threshold=args.threshold / 100.0)
    return render_compare(result), result.exit_code


_COMMANDS = {
    "info": _cmd_info,
    "layout": _cmd_layout,
    "agility": _cmd_agility,
    "three-phase": _cmd_three_phase,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "kvchurn": _cmd_kvchurn,
    "fig5": _cmd_fig5,
    "trace": _cmd_trace,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
    "check": _cmd_check,
    "report": _cmd_report,
    "timeline": _cmd_timeline,
    "profile": _cmd_profile,
    "compare": _cmd_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]

    trace_out = getattr(args, "trace_out", None)
    stats = getattr(args, "stats", False)
    check = getattr(args, "check", False)
    # The sweep command handles --profile-out itself (the profiling
    # happens inside the worker processes; the flag names the rollup).
    profile_out = (getattr(args, "profile_out", None)
                   if args.command != "sweep" else None)

    sink = None
    if trace_out is not None:
        try:
            sink = JSONLSink(trace_out)
        except OSError as exc:
            print(f"repro: cannot open trace file: {exc}", file=sys.stderr)
            return 2
        OBS.bus.attach(sink)
    checker_sink = None
    if check:
        checker_sink = CheckerSink()
        OBS.bus.attach(checker_sink)
    code = 0
    try:
        with profiling(profile_out, f"cmd:{args.command}", args.command):
            result = command(args)
        if isinstance(result, tuple):
            report, code = result
        else:
            report = result
        if profile_out is not None:
            report += f"\n\nprofile written to {profile_out}"
        if stats:
            report += "\n\n" + OBS.metrics.render(
                title=f"metrics — repro {args.command}")
        print(report)
        if checker_sink is not None:
            violations = checker_sink.finish()
            if violations:
                print(f"repro --check: {len(violations)} invariant "
                      f"violation(s):", file=sys.stderr)
                for v in violations[:50]:
                    print(v.describe(), file=sys.stderr)
                code = max(code, 1)
            else:
                print(f"repro --check: all invariants hold "
                      f"({checker_sink.suite.events_seen} events)",
                      file=sys.stderr)
    except (TraceParseError, EmptyTraceError, ProfileError,
            CompareError, AnalyticsError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad input that only the command's own code could judge
        # (impossible cluster, non-positive period, empty window):
        # one line and exit 1, never a traceback.
        raise SystemExit(f"repro {args.command}: {exc}")
    finally:
        if checker_sink is not None:
            OBS.bus.detach(checker_sink)
        if sink is not None:
            OBS.bus.detach(sink)
            sink.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
