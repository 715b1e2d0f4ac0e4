"""The testbed substitute: a discrete-event simulation core and a fluid
(max-min fair-share) IO bandwidth model.

The paper's Figures 2, 3 and 7 are produced by contention between
foreground client IO and background recovery/migration traffic on the
storage servers' disks.  We reproduce them with:

* :class:`Simulator` — a deterministic event-driven clock;
* :func:`max_min_fair` — progressive-filling max-min fair allocation of
  per-server disk bandwidth among flows with per-resource coefficients;
* :class:`FlowSet`/:class:`FluidFlow` — foreground and background flows
  (client IO, re-replication, re-integration) as fluid demands;
* :class:`IOModel` — the per-tick loop gluing flows to capacities and
  recording throughput timelines.

A tick advances in exactly two ways: a max-min-fair solve
(:meth:`FlowSet.advance`; the scalar or the columnar backend by
problem size — the two are bit-identical, see
:mod:`repro.simulation.columnar`) or, when every solve input is
provably unchanged, reuse of the previous solve's rates
(:meth:`FlowSet.advance_cached`).  Neither choice can change a sample
or a trace byte, and nothing outside the problem itself selects it.
"""

from repro.simulation.engine import Simulator
from repro.simulation.bandwidth import max_min_fair
from repro.simulation.columnar import max_min_fair_columnar
from repro.simulation.flows import FluidFlow, FlowSet
from repro.simulation.iomodel import IOModel

__all__ = [
    "Simulator",
    "max_min_fair",
    "max_min_fair_columnar",
    "FluidFlow",
    "FlowSet",
    "IOModel",
]
