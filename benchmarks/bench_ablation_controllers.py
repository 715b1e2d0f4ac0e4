"""Ablation E — resizing controllers (the paper's future work).

§VII: "We will continue to work on ... a resizing policy based on
workload profiling and prediction."  This bench pairs the
primary+selective mechanics with three controllers on the CC-a trace
and reports the machine-hours vs availability trade-off: the oracle is
the paper's clairvoyant ideal; reactive/predictive are what a real
deployment could run.  On a bursty trace neither real controller
dominates — hysteresis buys availability with machine hours, trend
forecasting the reverse — which is exactly why the paper defers this
to "workload profiling and prediction" future work.
"""

from _bench_utils import emit_report, once
from repro.experiments.traces import FIGURE_N_MAX
from repro.metrics.report import render_table
from repro.policy.analysis import config_for_trace
from repro.policy.controller import (
    OracleController,
    PredictiveController,
    ReactiveController,
    evaluate_provisioning,
)
from repro.policy.resizer import simulate_policy
from repro.workloads.cloudera import generate_cc_a

CONTROLLERS = (
    OracleController(),
    ReactiveController(),
    PredictiveController(),
)


def run_all():
    trace = generate_cc_a()
    cfg = config_for_trace(trace, FIGURE_N_MAX["CC-a"])
    out = {}
    for ctrl in CONTROLLERS:
        req = ctrl.requested(trace, cfg)
        res = simulate_policy("primary-selective", trace, cfg,
                              requested=req)
        quality = evaluate_provisioning(trace, res.servers,
                                        cfg.per_server_bw)
        out[ctrl.name] = (res, quality)
    return out


def bench_ablation_controllers(benchmark):
    results = once(benchmark, run_all)

    rows = []
    for name, (res, quality) in results.items():
        rows.append([
            name,
            round(res.relative_machine_hours, 3),
            f"{quality['violation_fraction'] * 100:.1f}%",
            f"{quality['mean_shortfall_fraction'] * 100:.1f}%",
            round(quality["mean_extra_servers"], 1),
        ])
    emit_report("ablation_controllers", render_table(
        ["controller", "rel. machine hours",
         "time under-provisioned", "mean shortfall when short",
         "mean extra servers"],
        rows,
        title="Ablation E — resizing controllers on CC-a with "
              "primary+selective mechanics (machine hours vs "
              "availability)"))

    oracle_mh = results["oracle"][0].relative_machine_hours
    # The oracle's only violations are the 1% of samples above the
    # p99-provisioned cluster ceiling.
    assert results["oracle"][1]["violation_fraction"] <= 0.015
    for name, (res, _q) in results.items():
        # Real controllers pay extra machine hours for not being
        # clairvoyant.
        assert res.relative_machine_hours >= oracle_mh - 1e-9, name
    # The finding: on a bursty trace the two controllers trace the
    # same trade-off frontier from opposite ends — the reactive
    # hold-down buys availability with machine hours, the trend
    # forecaster shrinks sooner and violates more.
    r_mh = results["reactive"][0].relative_machine_hours
    p_mh = results["predictive"][0].relative_machine_hours
    r_v = results["reactive"][1]["violation_fraction"]
    p_v = results["predictive"][1]["violation_fraction"]
    assert (r_mh >= p_mh) != (r_v >= p_v), \
        "one controller unexpectedly dominates the other"
