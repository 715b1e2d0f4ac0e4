#!/usr/bin/env python3
"""A survey of resizing policies and controllers on one trace.

Runs the paper's three policies, the GreenCHT tiered baseline (§VI),
and — stacked on the best policy — the reactive and predictive
controllers (the paper's future-work direction), reporting machine
hours, energy, and availability side by side.

Run:  python examples/elasticity_policies.py [CC-a|CC-b]
"""

import sys

from repro.cluster.power import PowerModel
from repro.experiments.traces import FIGURE_N_MAX
from repro.metrics.report import render_table
from repro.policy import (
    OracleController,
    PredictiveController,
    ReactiveController,
    evaluate_provisioning,
    simulate_policy,
)
from repro.policy.analysis import analyze_trace, config_for_trace
from repro.workloads.cloudera import generate_cc_a, generate_cc_b


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "CC-a"
    trace = generate_cc_a() if which == "CC-a" else generate_cc_b()
    cfg = config_for_trace(trace, FIGURE_N_MAX[which])

    # ---- mechanisms (clairvoyant targets) --------------------------------
    analysis = analyze_trace(trace, config=cfg)
    energy = analysis.energy_summary(PowerModel(watts_active=200.0))
    greencht = simulate_policy("greencht", trace, cfg)

    rows = []
    for name, res in analysis.results.items():
        rows.append([name, round(res.relative_machine_hours, 3),
                     round(energy[name]["energy_kwh"], 0),
                     f"{energy[name]['savings_vs_always_on'] * 100:.0f}%"])
    rows.append(["greencht (4 tiers)",
                 round(greencht.relative_machine_hours, 3), "-", "-"])
    rows.append(["always-on", "-",
                 round(energy["always-on"]["energy_kwh"], 0), "0%"])
    print(render_table(
        ["mechanism", "rel. machine hours", "energy kWh",
         "saved vs always-on"],
        rows, title=f"{which}: resizing mechanisms "
                    f"(n={cfg.n_max}, p={cfg.p})"))
    print()

    # ---- controllers on top of primary+selective -------------------------
    rows = []
    for ctrl in (OracleController(), ReactiveController(),
                 PredictiveController()):
        req = ctrl.requested(trace, cfg)
        res = simulate_policy("primary-selective", trace, cfg,
                              requested=req)
        quality = evaluate_provisioning(trace, res.servers,
                                        cfg.per_server_bw)
        rows.append([ctrl.name,
                     round(res.relative_machine_hours, 3),
                     f"{quality['violation_fraction'] * 100:.1f}%",
                     round(quality["mean_extra_servers"], 1)])
    print(render_table(
        ["controller (on primary+selective)", "rel. machine hours",
         "time under-provisioned", "mean extra servers"],
        rows, title="when to resize: controllers vs the oracle"))
    print("\nreading: mechanisms decide how cheaply the cluster can "
          "follow a target;\ncontrollers decide how good that target "
          "is without seeing the future.")


if __name__ == "__main__":
    main()
