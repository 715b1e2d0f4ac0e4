"""Trace-driven elasticity policy analysis (§V-B).

Given an offered-load trace, compute — per resizing policy — the
active-server series and machine hours, reproducing Figures 8/9 and
Table II.  The methodology follows the paper: "We calculate the delay
time and extra IOs according to the trace data and deduce the number
of servers needed" for the three cases:

* ``original-ch`` — uniform layout; sizing down requires clean-up
  (sequential per-server re-replication delays), sizing up triggers
  full migration IO;
* ``primary-full`` — primary servers + equal-work layout, resize is
  instant (floored at p), but re-integration is *full* (over-migrates
  everything on re-added servers);
* ``primary-selective`` — as above with selective, rate-limited
  re-integration of dirty data only.
"""

from repro.policy.ideal import ideal_servers
from repro.policy.resizer import (
    PolicyConfig,
    PolicyResult,
    OriginalCHPolicy,
    PrimaryFullPolicy,
    PrimarySelectivePolicy,
    GreenCHTPolicy,
    simulate_policy,
)
from repro.policy.controller import (
    OracleController,
    ReactiveController,
    PredictiveController,
    evaluate_provisioning,
)
from repro.policy.replay import ReplayResult, replay_policy
from repro.policy.analysis import TraceAnalysis, analyze_trace

__all__ = [
    "ideal_servers",
    "PolicyConfig",
    "PolicyResult",
    "OriginalCHPolicy",
    "PrimaryFullPolicy",
    "PrimarySelectivePolicy",
    "GreenCHTPolicy",
    "simulate_policy",
    "OracleController",
    "ReactiveController",
    "PredictiveController",
    "evaluate_provisioning",
    "ReplayResult",
    "replay_policy",
    "TraceAnalysis",
    "analyze_trace",
]
