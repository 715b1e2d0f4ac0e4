"""Engine scale: the fluid-IO engine at hundreds to 1000 servers.

Not a paper artefact — this guards the fluid-IO engine's own
performance at the cluster sizes the trace replays and robustness
sweeps want.  Four layers, all absolute medians of the one path the
product has (size-dispatched solver + allocation reuse):

* a (servers × flows) grid of static-flow ``IOModel.run`` scenarios —
  one solve, then every tick reuses it (``advance_cached``);
* a churn scenario where finite flows arrive and finish every tick, so
  *no* tick can reuse and each pays compile + solve — the per-solve
  path the static grid never shows — fingerprint asserted run to run;
* an end-to-end fig7 replay scaled to 1000 servers, with the result
  fingerprint asserted identical run to run;
* solver micro-medians (scalar vs columnar on one 1000-server
  instance, called directly and asserted bit-identical, plus a
  small-instance scalar median) so CI's history gate catches a
  regression in either backend.

There is no A/B inside this bench: the product has no switch to force
another path (docs/PERFORMANCE.md "Engine scale" records what the
removed horizon batching cost on the grid).  The committed
``benchmarks/reports/engine_scale_baseline.json`` records these
medians; CI runs this bench and gates the fresh timings against that
file with ``repro compare``.
"""

import math
import random
import time

from _bench_utils import emit_report, once
from repro.experiments import run_three_phase
from repro.metrics.report import render_table
from repro.simulation.bandwidth import FlowSpec, max_min_fair_scalar
from repro.simulation.columnar import max_min_fair_columnar
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import IOModel

#: (servers, flows) grid for the engine-throughput table.
GRID = [(25, 16), (100, 16), (400, 16), (1000, 16), (1000, 64)]
GRID_TICKS = 120

#: The churn scenario: servers, cluster-wide capped streams, finite
#: flows arriving per tick, servers each one touches, ticks.
CHURN = dict(servers=200, streams=8, per_tick=6, fanout=6, ticks=120)

#: Runs per median for the fingerprinted scenarios (churn, fig7).
FINGERPRINTED_RUNS = 3


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _repeatable_median(scenario, runs, label):
    """Median elapsed seconds over *runs* calls of *scenario* — which
    returns ``(elapsed, result fingerprint)`` — asserting that every
    run produced the same fingerprint."""
    results = [scenario() for _ in range(runs)]
    assert len({fingerprint for _, fingerprint in results}) == 1, \
        f"{label} results diverged"
    return _median([elapsed for elapsed, _ in results])


def _engine_scenario(n, n_flows, ticks):
    """Streams (a quarter elastic, the rest rate-capped) over *n*
    servers for *ticks* seconds; returns elapsed wall seconds."""
    rng = random.Random(0xEC5)
    caps = {i: rng.uniform(40e6, 80e6) for i in range(n)}
    io = IOModel(lambda: caps, dt=1.0)
    for i in range(n_flows):
        coeffs = {r: rng.uniform(0.5, 2.0) for r in range(n)}
        if i % 4 == 0:
            io.flows.add(FluidFlow(f"s{i}", coeffs))
        else:
            io.flows.add(FluidFlow(f"c{i}", coeffs,
                                   rate_cap=rng.uniform(1e6, 5e6)))
    t0 = time.perf_counter()
    io.run(float(ticks))
    elapsed = time.perf_counter() - t0
    assert len(io.samples) == ticks
    return elapsed


def _churn_scenario(servers, streams, per_tick, fanout, ticks):
    """Rate-capped streams over every server plus *per_tick* finite
    *fanout*-server flows arriving each tick (and draining a few ticks
    later): membership changes every tick, so every tick re-solves.
    Returns (elapsed wall seconds, result fingerprint)."""
    rng = random.Random(0xC4A)
    mb = 1 << 20
    caps = {r: 64.0 * mb for r in range(1, servers + 1)}
    io = IOModel(lambda: caps, dt=1.0, capacity_token=lambda: 0)
    for i in range(streams):
        io.flows.add(FluidFlow(f"stream{i}", {r: 1.0 / servers for r in caps},
                               rate_cap=400.0 * mb))
    finite = []
    t0 = time.perf_counter()
    for tick in range(1, ticks + 1):
        for _ in range(per_tick):
            finite.append(io.flows.add(FluidFlow(
                "bulk", {r: 1.0 / fanout
                         for r in rng.sample(range(1, servers + 1), fanout)},
                total_bytes=rng.uniform(200.0 * mb, 2048.0 * mb))))
        io.step(float(tick))
    elapsed = time.perf_counter() - t0
    fingerprint = (len(io.flows), tuple(f.progressed for f in finite),
                   tuple(sum(s.values()) for _, s in io.samples))
    return elapsed, fingerprint


def _fig7_replay():
    """The three-phase driver end-to-end, scaled to 1000 servers (256 MB
    objects keep the placement write path from drowning the engine
    work this bench is about)."""
    t0 = time.perf_counter()
    r = run_three_phase(
        "selective", n=1000, off_count=400, scale=1.0,
        object_size=256 * 1024 * 1024, disk_bw=64e6, client_cap=3200e6,
        selective_rate_limit=500e6)
    elapsed = time.perf_counter() - t0
    fingerprint = (len(r.times), r.times[-1], r.migrated_bytes,
                   tuple(r.throughput[::25]))
    return elapsed, fingerprint


def _solver_instance(n, n_flows, seed=1):
    rng = random.Random(seed)
    caps = {i: rng.uniform(40e6, 80e6) for i in range(n)}
    flows = []
    for i in range(n_flows):
        coeffs = {r: rng.uniform(0.5, 2.0) for r in range(n)}
        demand = math.inf if i % 4 == 0 else rng.uniform(10e6, 100e6)
        flows.append(FlowSpec(coeffs, demand))
    return flows, caps


def _measure():
    out = {"grid": [], "benches": {}}

    # Engine-throughput grid: static flows, so one solve then reuse.
    for n, n_flows in GRID:
        elapsed = _median([_engine_scenario(n, n_flows, GRID_TICKS)
                           for _ in range(3)])
        out["grid"].append({
            "servers": n, "flows": n_flows, "ticks": GRID_TICKS,
            "elapsed_s": elapsed, "ticks_per_s": GRID_TICKS / elapsed,
        })
        out["benches"][f"engine_{n}x{n_flows}"] = {
            "median_s": elapsed,
            "what": f"IOModel.run, {n} servers x {n_flows} flows x "
                    f"{GRID_TICKS} ticks, median of 3"}

    # Churn: every tick compiles and solves (reuse never applies).
    out["benches"]["engine_churn_200"] = {
        "median_s": _repeatable_median(lambda: _churn_scenario(**CHURN),
                                       FINGERPRINTED_RUNS, "churn scenario"),
        "what": "IOModel.step, {servers} servers, {streams} capped "
                "streams + {per_tick} finite {fanout}-server flows "
                "arriving per tick x {ticks} ticks (a solve every "
                "tick), median of {runs}".format(
                    runs=FINGERPRINTED_RUNS, **CHURN)}

    # End-to-end fig7 replay at 1000 servers.
    out["benches"]["fig7_replay_1000"] = {
        "median_s": _repeatable_median(_fig7_replay, FINGERPRINTED_RUNS,
                                       "fig7 replay"),
        "what": f"run_three_phase selective, n=1000, end-to-end, "
                f"median of {FINGERPRINTED_RUNS}"}

    # Solver micro-medians (both backends, bit-identical results).
    flows, caps = _solver_instance(1000, 64)
    scalar_runs, columnar_runs = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        r_scalar = max_min_fair_scalar(flows, caps)
        scalar_runs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        r_columnar = max_min_fair_columnar(flows, caps)
        columnar_runs.append(time.perf_counter() - t0)
        assert r_scalar == r_columnar
    out["benches"]["solver_scalar_1000x64"] = {
        "median_s": _median(scalar_runs),
        "what": "one max_min_fair_scalar solve, 1000 servers x 64 "
                "cluster-wide flows"}
    out["benches"]["solver_columnar_1000x64"] = {
        "median_s": _median(columnar_runs),
        "what": "the same solve through the columnar backend"}

    small_flows, small_caps = _solver_instance(25, 8)
    small_runs = []
    for _ in range(20):
        t0 = time.perf_counter()
        max_min_fair_scalar(small_flows, small_caps)
        small_runs.append(time.perf_counter() - t0)
    out["benches"]["solver_scalar_25x8"] = {
        "median_s": _median(small_runs),
        "what": "small-instance scalar solve (the paper-scale per-tick "
                "cost the auto cutover keeps on the dict loop)"}

    return out


def bench_engine_scale(benchmark):
    out = once(benchmark, _measure)

    grid_rows = [[f"{g['servers']}x{g['flows']}", g["ticks"],
                  f"{g['elapsed_s'] * 1e3:.1f}",
                  round(g["ticks_per_s"], 1)]
                 for g in out["grid"]]
    other_rows = [
        [name, f"{out['benches'][name]['median_s'] * 1e3:.3f}"]
        for name in ("engine_churn_200", "fig7_replay_1000",
                     "solver_scalar_1000x64", "solver_columnar_1000x64",
                     "solver_scalar_25x8")
    ]
    # Bench entries go at the top level of ``data`` so ``repro
    # compare`` finds their ``median_s`` leaves and can gate this file
    # against the committed baseline.
    emit_report("engine_scale", "\n".join([
        render_table(
            ["servers x flows", "ticks", "median ms", "ticks/s"],
            grid_rows,
            title="IOModel.run throughput, static flows (one solve, "
                  "then reuse every tick); sim-seconds per wall-second "
                  "= ticks/s (dt=1)"),
        "",
        render_table(["bench", "median ms"], other_rows,
                     title="flow churn (a solve every tick), fig7 "
                           "replay at n=1000 end to end, and one-solve "
                           "medians (both backends produce identical "
                           "rates)"),
    ]), data={**out["benches"], "grid": out["grid"]})
