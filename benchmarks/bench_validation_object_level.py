"""Validation — does the fluid §V-B model agree with the real cluster?

Table II comes from a fluid model (bytes and bandwidth, no objects).
This bench replays a 90-minute CC-a window against the *object-level*
cluster — every write placed, every dirty entry logged, every
re-integration byte measured — under the same policy rules (one loop
drives both levels), and compares relative machine hours level by
level.  The report states the largest gap it measured; it covers this
one CC-a window, not CC-b and not the month-long traces.
"""

from _bench_utils import emit_report, once
from repro.experiments.traces import FIGURE_N_MAX
from repro.metrics.report import render_table
from repro.policy.analysis import config_for_trace
from repro.policy.replay import replay_policy
from repro.policy.resizer import simulate_policy
from repro.workloads.cloudera import generate_cc_a

POLICIES = ("original-ch", "primary-full", "primary-selective")
WINDOW_START_MIN = 600
WINDOW_MIN = 90
OBJECT_SIZE = 4 * 1024 * 1024


def run_both_levels():
    trace = generate_cc_a()
    cfg = config_for_trace(trace, FIGURE_N_MAX["CC-a"])
    window = trace.window(WINDOW_START_MIN * 60, WINDOW_MIN * 60)
    preload = int(cfg.dataset_bytes / OBJECT_SIZE)
    out = {}
    for name in POLICIES:
        fluid = simulate_policy(name, window, cfg)
        replay = replay_policy(name, window, cfg,
                               object_size=OBJECT_SIZE,
                               preload_objects=preload)
        out[name] = (fluid, replay)
    return out


def bench_validation_object_level(benchmark):
    results = once(benchmark, run_both_levels)
    fluid_order = sorted(POLICIES,
                         key=lambda p: results[p][0]
                         .relative_machine_hours)
    replay_order = sorted(POLICIES,
                          key=lambda p: results[p][1]
                          .relative_machine_hours)
    gaps = {name: abs(fluid.relative_machine_hours
                      - replay.relative_machine_hours)
            for name, (fluid, replay) in results.items()}
    widest = max(gaps, key=gaps.get)

    rows = []
    for name, (fluid, replay) in results.items():
        rows.append([
            name,
            round(fluid.relative_machine_hours, 3),
            round(replay.relative_machine_hours, 3),
            round(replay.migrated_bytes / 1e9, 1),
            round(replay.rereplicated_bytes / 1e9, 1),
        ])
    emit_report("validation_object_level", "\n".join([
        render_table(
            ["policy", "fluid rel. MH", "object-level rel. MH",
             "measured migration GB", "measured re-replication GB"],
            rows,
            title=f"Fluid model vs object-level replay "
                  f"({WINDOW_MIN}-minute CC-a window, "
                  f"{FIGURE_N_MAX['CC-a']} servers)"),
        "",
        "Migration is the bytes drained within the window.  The "
        f"largest gap is {gaps[widest]:.3f} relative machine hours "
        f"({widest}), and the two levels order the policies "
        f"{'the same' if fluid_order == replay_order else 'differently'}.",
        f"This is {WINDOW_MIN} minutes of CC-a only: CC-b and the "
        "month-long traces are not replayed here.",
    ]))

    assert fluid_order == replay_order, "levels disagree on ordering"
    for name, (fluid, replay) in results.items():
        assert abs(fluid.relative_machine_hours
                   - replay.relative_machine_hours) < 0.35, name
