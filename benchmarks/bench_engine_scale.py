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
  small-instance scalar median).

There is no A/B inside this bench: the product has no switch to force
another path (docs/PERFORMANCE.md "Engine scale" records what the
removed horizon batching cost on the grid).  To compare two trees,
use pytest-benchmark's ``--benchmark-save`` / ``--benchmark-compare``
(README "Tests and benchmarks").  Every number here is a wall-clock
median, so the tables are printed (``-s`` shows them), never written
under ``reports/``.
"""

import math
import random
import time

from _bench_utils import once
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
    """Returns the grid's ``(servers, flows, median seconds)`` rows and
    the other scenarios' median seconds by name, in report order."""
    grid, medians = [], {}

    # Engine-throughput grid: static flows, so one solve then reuse.
    for n, n_flows in GRID:
        grid.append((n, n_flows, _median(
            [_engine_scenario(n, n_flows, GRID_TICKS) for _ in range(3)])))

    # Churn: every tick compiles and solves (reuse never applies).
    medians["engine_churn_200"] = _repeatable_median(
        lambda: _churn_scenario(**CHURN), FINGERPRINTED_RUNS,
        "churn scenario")

    # End-to-end fig7 replay at 1000 servers.
    medians["fig7_replay_1000"] = _repeatable_median(
        _fig7_replay, FINGERPRINTED_RUNS, "fig7 replay")

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
    medians["solver_scalar_1000x64"] = _median(scalar_runs)
    medians["solver_columnar_1000x64"] = _median(columnar_runs)

    # Small-instance scalar solve: the paper-scale per-tick cost the
    # auto cutover keeps on the dict loop.
    small_flows, small_caps = _solver_instance(25, 8)
    small_runs = []
    for _ in range(20):
        t0 = time.perf_counter()
        max_min_fair_scalar(small_flows, small_caps)
        small_runs.append(time.perf_counter() - t0)
    medians["solver_scalar_25x8"] = _median(small_runs)

    return grid, medians


def bench_engine_scale(benchmark):
    grid, medians = once(benchmark, _measure)

    grid_rows = [[f"{n}x{n_flows}", GRID_TICKS, f"{elapsed * 1e3:.1f}",
                  round(GRID_TICKS / elapsed, 1)]
                 for n, n_flows, elapsed in grid]
    other_rows = [[name, f"{median * 1e3:.3f}"]
                  for name, median in medians.items()]
    print("\n".join([
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
    ]))
