"""One assembly of cluster + fluid IO, and the §V-A client that loads it.

Every harness that *ticks* a cluster (``run_three_phase``,
``run_chaos``, ``run_serve``) needs the same wiring: capacities read
from the cluster's membership, a token vouching for "capacities
unchanged since the last solve", the placement probe that turns a
membership into client-flow coefficients, and the rule for charging
re-integration bytes to a ``migration`` flow.  :class:`ClusterRuntime`
is that wiring, once; :class:`ThreePhaseLoad` is the paper's 3-phase
Filebench client on top of it.  They are pieces, not a loop: each
harness keeps its own tick loop, because the three interleave
simulator events, transfer polling, admission control and IO steps in
different orders on purpose.

The paper's testbed is declared here too — what no caller varies is a
constant, not a harness parameter.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Sequence

from repro.simulation.bandwidth import apply_capacity_factors
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import (
    IOModel,
    client_coefficients,
    replica_load_fractions_from_matrix,
)

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.simulation.engine import Simulator
    from repro.workloads.three_phase import Phase

__all__ = ["ClusterRuntime", "ThreePhaseLoad", "REPLICAS", "DISK_BW",
           "CLIENT_CAP", "OBJECT_SIZE", "REINTEGRATION_RATE", "PHASE2_RATE",
           "DT", "MAX_DURATION", "PROBE_OBJECTS"]

# The §V-A testbed: 2-way replication, 64 MB/s disks, clients that can
# push 320 MB/s between them, Sheepdog's 4 MB objects, selective
# re-integration limited to 50 MB/s.
REPLICAS = 2
DISK_BW = 64e6
CLIENT_CAP = 320e6
OBJECT_SIZE = 4 * 1024 * 1024
REINTEGRATION_RATE = 50e6
#: Filebench's ``rate`` for phase 2.  A float: ``flow.start``
#: serialises the cap, so an integer would change the trace bytes.
PHASE2_RATE = 20e6
#: Tick length and the cutoff for a run that will not drain, both in
#: simulated seconds.
DT = 1.0
MAX_DURATION = 3_600.0
#: Object ids placed to estimate each server's share of client load.
PROBE_OBJECTS = 2_000


class ClusterRuntime:
    """A cluster wired to one :class:`~repro.simulation.iomodel.IOModel`.

    *cluster* is either flavour — what is asked of it is ``servers``,
    ``replicas``, ``active_ranks()``, ``placement_bulk(oids)``,
    ``prehash(oids)`` and ``membership_token``.  *sim* is the event
    heap the harness interleaves with IO ticks (``None`` for a
    tick-only run), kept here so whatever is built on the assembly
    takes one object.  With an *injector*, its slow-disk windows scale
    the capacities and its ``generation`` joins the capacity token.
    """

    def __init__(self, cluster, dt: float,
                 sim: Optional["Simulator"] = None,
                 injector: Optional["FaultInjector"] = None) -> None:
        self.cluster = cluster
        self.sim = sim
        self.injector = injector
        self.io = IOModel(self.capacities, dt,
                          capacity_token=self.capacity_token)
        #: (probe size, *active ranks) -> replica-load fractions.
        self._fractions: Dict[tuple, Dict[int, float]] = {}

    def capacities(self) -> Dict[int, float]:
        """``{active rank: disk bytes/s}`` in ascending rank order (the
        solve payload's tie-breaks read the order)."""
        servers = self.cluster.servers
        caps = {rank: servers[rank].disk_bandwidth
                for rank in self.cluster.active_ranks()}
        if self.injector is None:
            return caps
        return apply_capacity_factors(caps,
                                      self.injector.capacity_factors())

    def capacity_token(self) -> Hashable:
        """Moves whenever :meth:`capacities` would: the active set only
        changes with the cluster's membership token, the factors only
        when the injector fires (conservative, but cheap)."""
        if self.injector is None:
            return self.cluster.membership_token
        return (self.cluster.membership_token, self.injector.generation)

    def fractions(self, probe_objects: int) -> Dict[int, float]:
        """Each server's share of replica traffic under the current
        membership, from placing *probe_objects* ids — once per active
        set."""
        key = (probe_objects, *self.cluster.active_ranks())
        if key not in self._fractions:
            probe = range(10_000_000, 10_000_000 + probe_objects)
            self._fractions[key] = replica_load_fractions_from_matrix(
                self.cluster.placement_bulk(probe).servers)
        return self._fractions[key]

    def even_coefficients(self, ranks: Sequence[int] = ()
                          ) -> Dict[int, float]:
        """Unit load spread evenly over *ranks* (default: the active
        servers)."""
        ranks = ranks or self.cluster.active_ranks()
        return {rank: 1.0 / len(ranks) for rank in ranks}

    def add_reintegration_flow(
            self, nbytes: float, rate_cap: float = math.inf,
            coefficients: Optional[Dict[int, float]] = None,
            parent=None) -> Optional[FluidFlow]:
        """Charge *nbytes* of (logically instant) re-integration to a
        ``migration`` flow competing for the disks; nothing to move,
        no flow."""
        if nbytes <= 0:
            return None
        if coefficients is None:
            coefficients = self.even_coefficients()
        return self.io.flows.add(FluidFlow(
            name="migration", coefficients=coefficients,
            total_bytes=float(nbytes), rate_cap=rate_cap), parent=parent)

    def reintegrate_selective(self, rate_cap: float) -> Optional[FluidFlow]:
        """Run Algorithm 2 now and move its bytes through a
        rate-limited flow parented to the open ``resize.cycle``."""
        cycle = self.cluster.reintegration_cycle   # the pass may close it
        report = self.cluster.run_selective_reintegration()
        return self.add_reintegration_flow(
            report.bytes_migrated, rate_cap, parent=cycle)


class ThreePhaseLoad:
    """The §V-A client: one fluid ``client`` flow per workload phase,
    its written bytes materialised as placed objects so migration
    volumes and dirty tracking reflect real state.

    The harness calls :meth:`start` once, then per tick
    :meth:`materialise_writes`; when :attr:`phase_done` it calls
    :meth:`finish_phase`, resizes as it sees fit, and :meth:`advance`
    (which reads the membership afresh).  After a membership change
    under a live phase it calls :meth:`refresh`.
    """

    def __init__(self, runtime: ClusterRuntime, phases: Sequence["Phase"],
                 client_cap: float = CLIENT_CAP,
                 object_size: int = OBJECT_SIZE) -> None:
        if not 0 < object_size < math.inf:
            raise ValueError(f"object_size must be positive and finite "
                             f"(got {object_size})")
        self.runtime = runtime
        self.phases = phases
        self.client_cap = client_cap
        self.object_size = object_size
        #: Index of the phase in flight (or about to start).
        self.index = 0
        #: The live client flow; None between phases.
        self.flow: Optional[FluidFlow] = None
        #: Phase name -> completion time.
        self.phase_ends: Dict[str, float] = {}
        #: Objects written so far (oids ``1..written``).
        self.written = 0
        self._carry = 0.0          # fractional-object accumulator

    def _coefficients(self) -> Dict[int, float]:
        rt = self.runtime
        return client_coefficients(rt.fractions(PROBE_OBJECTS),
                                   rt.cluster.replicas,
                                   self.phases[self.index].write_ratio)

    def start(self) -> None:
        """Open the current phase's client flow, and hash every oid it
        can write (consecutive, at most ``write_bytes`` worth) in one
        array pass before the first one is placed."""
        phase = self.phases[self.index]
        first = self.written + 1
        self.runtime.cluster.prehash(range(
            first, first + 1 + int(phase.write_bytes // self.object_size)))
        cap = min(self.client_cap, phase.rate_cap or self.client_cap)
        self.flow = self.runtime.io.flows.add(FluidFlow(
            name="client", coefficients=self._coefficients(),
            total_bytes=phase.total_bytes, rate_cap=cap))

    def refresh(self) -> None:
        """Re-point the live client flow at the current membership."""
        if self.flow is not None and not self.flow.done:
            self.flow.coefficients = self._coefficients()

    def materialise_writes(self) -> None:
        """Turn the last tick's written bytes into whole objects: the
        next consecutive oids, written as one batch."""
        if self.flow is None:
            return
        rt = self.runtime
        self._carry += (self.flow.last_rate * rt.io.dt
                        * self.phases[self.index].write_ratio)
        count = 0
        while self._carry >= self.object_size:
            self._carry -= self.object_size
            count += 1
        if count:
            first = self.written + 1
            rt.cluster.write_many(range(first, first + count),
                                  self.object_size)
            self.written += count

    @property
    def phase_done(self) -> bool:
        return self.flow is not None and self.flow.done

    def finish_phase(self, now: float) -> int:
        """Record the drained phase's end; returns its index."""
        self.phase_ends[self.phases[self.index].name] = now
        self.flow = None
        self._carry = 0.0
        return self.index

    def advance(self) -> bool:
        """Start the next phase; False when there is none left."""
        if self.index + 1 >= len(self.phases):
            return False
        self.index += 1
        self.start()
        return True
