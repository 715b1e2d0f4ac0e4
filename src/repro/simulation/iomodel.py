"""The per-tick IO model: flows vs. per-server disk capacity.

:class:`IOModel` advances a :class:`~repro.simulation.flows.FlowSet`
against time-varying capacities (servers power on and off) and records
the achieved throughput per flow name — the raw series behind the
paper's throughput-vs-time figures.

It also provides the bridge between *placement* and *fluid load*:
:func:`replica_load_fractions` probes a placement function with a set
of object ids and returns each server's share of replica traffic,
which becomes the client flow's per-server coefficients.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.obs.runtime import OBS
from repro.simulation.flows import FlowSet

__all__ = ["IOModel", "replica_load_fractions",
           "replica_load_fractions_from_matrix", "client_coefficients"]

CapacityFn = Callable[[], Mapping[Hashable, float]]

def replica_load_fractions(
    locate: Callable[[int], Iterable[int]],
    probe_oids: Iterable[int],
) -> Dict[int, float]:
    """Fraction of replica traffic each server receives, estimated by
    placing *probe_oids* through *locate*.

    The fractions sum to 1 over all servers; a write stream at logical
    rate X with replication r generates ``r * X * fraction[s]`` load on
    server s.
    """
    counts: Dict[int, int] = {}
    total = 0
    for oid in probe_oids:
        for s in locate(oid):
            counts[s] = counts.get(s, 0) + 1
            total += 1
    if total == 0:
        raise ValueError("probe produced no placements")
    return {s: c / total for s, c in counts.items()}


def replica_load_fractions_from_matrix(servers: np.ndarray
                                       ) -> Dict[int, float]:
    """:func:`replica_load_fractions` from a bulk placement's ``(N, r)``
    server matrix (``BulkPlacement.servers``) — the drivers probe
    placement via ``locate_bulk`` and hand the matrix here.

    Produces the identical dict (values *and* first-encounter key
    order) as the scalar probe loop; unplaceable rows (``-1``) are
    ignored.
    """
    flat = np.asarray(servers).ravel()
    valid = flat[flat >= 0]
    total = int(valid.size)
    if total == 0:
        raise ValueError("probe produced no placements")
    counts = np.bincount(valid)
    # First-encounter key order, as the scalar probe loop produces:
    # unique server ids sorted by their first index in the (filtered,
    # order-preserving) valid array.
    uniq, first = np.unique(valid, return_index=True)
    order = uniq[np.argsort(first, kind="stable")]
    return {int(s): int(counts[s]) / total for s in order}


def client_coefficients(
    fractions: Mapping[int, float],
    replicas: int,
    write_ratio: float = 1.0,
) -> Dict[int, float]:
    """Per-server disk load per unit of *logical* client throughput.

    A written byte costs ``replicas`` disk-bytes (every copy is
    written); a read byte costs 1 (one replica serves it).  Both spread
    over the servers by *fractions*.
    """
    if not 0.0 <= write_ratio <= 1.0:
        raise ValueError("write_ratio must be in [0, 1]")
    amplification = write_ratio * replicas + (1.0 - write_ratio)
    return {s: amplification * frac
            for s, frac in fractions.items() if frac > 0.0}


class IOModel:
    """Tick-driven fluid IO over a storage cluster.

    Parameters
    ----------
    capacity_fn:
        Returns the *current* ``{server: disk bytes/s}`` for powered-on
        servers; consulted every tick so resizes take effect
        immediately.
    dt:
        Tick length in seconds.
    capacity_token:
        Optional zero-arg callable returning a cheap generation token
        that changes whenever ``capacity_fn``'s result would (e.g. the
        cluster's placement version, or ``(version, injector
        generation)`` under faults).  With a token, unchanged ticks
        skip the capacity-dict rebuild entirely; without one the model
        falls back to rebuilding and comparing the dict — still far
        cheaper than a solve.  An inaccurate token that *over*-reports
        change only costs speed; one that under-reports change breaks
        correctness, so only wire tokens that cover every capacity
        input.
    """

    def __init__(self, capacity_fn: CapacityFn, dt: float = 1.0,
                 capacity_token: Optional[Callable[[], object]] = None
                 ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.capacity_fn = capacity_fn
        self.dt = dt
        self.capacity_token = capacity_token
        self.flows = FlowSet()
        #: (time, {flow name: achieved bytes/s}) per tick.
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        #: Sample index -> length of a tick shorter than ``dt``.
        self._short_ticks: Dict[int, float] = {}
        #: Capacities (and token) observed at the last full solve —
        #: the reuse path compares against these.
        self._caps: Optional[Dict[Hashable, float]] = None
        self._caps_token: object = None

    # ------------------------------------------------------------------
    def _caps_unchanged(self) -> Tuple[bool, Optional[Dict[Hashable, float]]]:
        """(capacities provably unchanged since the last solve, the
        freshly built dict if this check had to build one)."""
        if self._caps is None:
            return False, None
        if self.capacity_token is not None:
            return self.capacity_token() == self._caps_token, None
        caps = dict(self.capacity_fn())
        # Ordered compare: the solvers' outputs are insensitive to
        # capacity-dict ordering in value, but the solve payload's
        # tie-breaks are not — demand the exact same dict.
        return (list(caps.items()) == list(self._caps.items())), caps

    def step(self, now: float, dt: Optional[float] = None
             ) -> Dict[str, float]:
        """Advance one tick ending at *now*, ``self.dt`` long unless a
        shorter *dt* is given, and record the sample."""
        dt = self.dt if dt is None else dt
        if dt != self.dt:
            self._short_ticks[len(self.samples)] = dt
        bus = OBS.bus
        bus.clock = now
        achieved: Optional[Dict[str, float]] = None
        unchanged, caps = self._caps_unchanged()
        if unchanged:
            if len(self.flows) == 0:
                achieved = {}
            else:
                achieved = self.flows.advance_cached(dt)
        if achieved is None:
            if caps is None:
                caps = dict(self.capacity_fn())
            self._caps = caps
            if self.capacity_token is not None:
                self._caps_token = self.capacity_token()
            achieved = self.flows.advance(dt, caps)
        self.samples.append((now, achieved))
        OBS.metrics.inc("engine.ticks")
        OBS.metrics.gauge("io.live_flows").set(len(self.flows))
        if bus.active:
            bus.emit("engine.tick", t=now, dt=dt,
                     flows=len(self.flows), servers=len(self._caps))
        return achieved

    def run(self, duration: float) -> None:
        """Convenience loop: tick from 0 for *duration* seconds.  A
        last tick cut short by *duration* advances the flows by its
        actual length."""
        t = 0.0
        while t < duration - 1e-9:
            short = duration - t if duration - t < self.dt - 1e-9 else None
            t = min(t + self.dt, duration)
            self.step(t, short)

    # ------------------------------------------------------------------
    def series(self, name: str) -> Tuple[List[float], List[float]]:
        """(times, bytes/s) achieved by flows named *name* (0 where the
        flow was absent)."""
        times = [t for t, _ in self.samples]
        values = [s.get(name, 0.0) for _, s in self.samples]
        return times, values

    def total_moved(self, name: str) -> float:
        """Total bytes achieved by *name* across the run."""
        return (sum(s.get(name, 0.0) for _, s in self.samples) * self.dt
                - sum(self.samples[i][1].get(name, 0.0) * (self.dt - dt)
                      for i, dt in self._short_ticks.items()))
