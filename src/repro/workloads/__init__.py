"""Workloads: the §V-A 3-phase benchmark and §V-B trace substitutes.

* :mod:`repro.workloads.three_phase` — the Filebench-like 3-phase
  workload (sequential write / rate-limited mixed / read-mostly);
* :mod:`repro.workloads.synthetic` — load-profile primitives (diurnal
  cycles, bursts) for building trace-like series;
* :mod:`repro.workloads.cloudera` — synthetic stand-ins for the
  proprietary Cloudera customer traces CC-a and CC-b, matched to the
  published Table I envelopes;
* :mod:`repro.workloads.trace` — the load-trace container.
"""

from repro.workloads.trace import LoadTrace, TraceSpec
from repro.workloads.three_phase import Phase, three_phase_workload
from repro.workloads.synthetic import (
    diurnal_profile,
    burst_profile,
    synthesize_load,
)
from repro.workloads.cloudera import (
    CC_A,
    CC_B,
    generate_cc_a,
    generate_cc_b,
    generate_trace,
)

__all__ = [
    "LoadTrace",
    "TraceSpec",
    "Phase",
    "three_phase_workload",
    "diurnal_profile",
    "burst_profile",
    "synthesize_load",
    "CC_A",
    "CC_B",
    "generate_cc_a",
    "generate_cc_b",
    "generate_trace",
]
