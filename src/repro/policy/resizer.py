"""Resizing-policy simulators for the trace analysis (§V-B).

The paper deduces "the number of servers needed" per time step from the
trace load plus each policy's overheads: clean-up delays when the
original consistent hashing sizes down, and re-integration IO when any
policy sizes up.  These simulators implement that calculation as an
explicit per-sample state machine:

* the **ideal** series is ``ceil(load / per_server_bw)``;
* sizing **up** is instant for every policy (consistent hashing adds
  servers without prerequisite migration, §II-C) but creates a
  *migration debt* — bytes that must move to restore the layout:

  - original CH: all data the new ring maps onto the added servers
    (they rejoined empty),
  - primary+full: all data the equal-work layout puts on the re-added
    servers (over-migration: the full path cannot tell stale from
    valid, §II-C),
  - primary+selective: only the *dirty* replicas offloaded while the
    servers were down, drained under a rate cap;

  draining the debt consumes cluster bandwidth, so while it drains the
  cluster must run ``ceil((load + drain) / per_server_bw)`` servers —
  the "extra IOs ... which increases the number of servers needed";

* sizing **down** is instant for the primary-server policies (floored
  at p) but *sequential and delayed* for original CH: each departing
  server's data must re-replicate before the next departure (§II-C),
  at a rate set by the cluster's recovery bandwidth.

The model is fluid (bytes and bandwidth, no per-object placement) —
the same granularity as the paper's own trace analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.layout import primary_count
from repro.metrics.distribution import equal_work_reference
from repro.policy.ideal import ideal_servers
from repro.workloads.trace import LoadTrace

__all__ = [
    "PolicyConfig",
    "PolicyResult",
    "OriginalCHPolicy",
    "PrimaryFullPolicy",
    "PrimarySelectivePolicy",
    "GreenCHTPolicy",
    "simulate_policy",
]

#: *Physical* per-server disk bandwidth (bytes/s): clean-up
#: re-replication and re-integration move raw bytes at disk speed,
#: however slow the workload-effective rate is.
DISK_BW = 80e6
#: Replication factor r.
REPLICAS = 2
#: Share of the active cluster's disk bandwidth the baseline spends on
#: departure re-replication, and the share uncontrolled
#: re-integration grabs (original CH and primary+full; §II-C: "the
#: rate of migration operation is not controlled").
RECOVERY_FRACTION = 0.5
MIGRATION_FRACTION = 0.5
#: Byte-rate cap for selective re-integration (the token bucket).
SELECTIVE_RATE_LIMIT = 100e6
#: GreenCHT's power tiers: the always-on one plus three equal slices.
NUM_TIERS = 4


@dataclass(frozen=True)
class PolicyConfig:
    """Shared model parameters.

    Attributes
    ----------
    n_max:
        Cluster size (the trace's machine count).
    dataset_bytes:
        Unique resident data D; the clean-up/migration volumes scale
        with it.  Required: :func:`~repro.policy.analysis.config_for_trace`
        sets it to a hot working set of the trace's mean load, not the
        whole disk population.
    per_server_bw:
        *Effective* foreground throughput one active server contributes
        to the traced workload (bytes/s).  This is a workload-level
        number (MapReduce jobs do far less than disk speed per node);
        it calibrates the ideal series to the figures' y-range.

    The physical disks, replication and background-IO shares are the
    module constants :data:`DISK_BW`, :data:`REPLICAS`,
    :data:`RECOVERY_FRACTION`, :data:`MIGRATION_FRACTION` and
    :data:`SELECTIVE_RATE_LIMIT`.
    """

    n_max: int
    dataset_bytes: float
    per_server_bw: float = 40e6

    def __post_init__(self) -> None:
        if self.n_max < REPLICAS:
            raise ValueError("cluster smaller than replication factor")
        for name in ("per_server_bw", "dataset_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def p(self) -> int:
        return primary_count(self.n_max, REPLICAS)


@dataclass
class PolicyResult:
    """Outcome of one policy run over one trace."""

    name: str
    servers: np.ndarray          # active servers per sample
    dt: float
    migrated_bytes: float        # total re-integration traffic
    rereplicated_bytes: float    # baseline clean-up traffic
    ideal: np.ndarray

    @property
    def machine_hours(self) -> float:
        return float(self.servers.sum() * self.dt / 3600.0)

    @property
    def ideal_machine_hours(self) -> float:
        return float(self.ideal.sum() * self.dt / 3600.0)

    @property
    def relative_machine_hours(self) -> float:
        """Table II's metric: machine hours relative to the ideal."""
        return self.machine_hours / self.ideal_machine_hours


def _equal_work_shares(n: int, p: int, r: int) -> np.ndarray:
    """:func:`~repro.metrics.distribution.equal_work_reference` as an
    array indexed by ``rank - 1``.  A cluster of primaries only has no
    reference shape; it keeps just the pinned copy, ``1/(r·p)`` each."""
    if p == n:
        return np.full(n, (1.0 / r) / p)
    ref = equal_work_reference(n, p, r)
    return np.array([ref[rank] for rank in range(1, n + 1)])


class _PolicyBase:
    """The §V-B rules, stated once: the per-sample loop of :meth:`_run`.

    What the loop leaves to a *level* is only what moves bytes: the
    debt a growth creates, a sample's drain, an instant shrink, the
    clean-up of one departure, and the sample's writes.  A policy is
    its own fluid level (the hooks below estimate bytes from layout
    shares); :mod:`repro.policy.replay` gives the same hooks a real
    cluster and measures them."""

    name = "base"
    #: Uncontrolled re-integration occupies the recovery machinery, so
    #: sizing down waits while the outstanding debt cannot drain within
    #: one sample period — §V-B: "the IO load from full data
    #: re-integration could prevent the cluster from sizing down for
    #: some period ... this only occurs at extreme situations where the
    #: cluster resizes abruptly".
    debt_blocks_shrink = True
    #: Departures are sequential and each waits for its clean-up
    #: (original CH, §II-C); otherwise sizing down is instant.
    sequential_departures = False

    def __init__(self, config: PolicyConfig) -> None:
        self.cfg = config

    # Rules ------------------------------------------------------------
    @property
    def floor(self) -> int:
        raise NotImplementedError

    def drain_capacity(self, k: int) -> float:
        """Max migration drain rate with k servers active (raw bytes at
        disk speed)."""
        return MIGRATION_FRACTION * k * DISK_BW

    def quantise_target(self, target: int) -> int:
        """Restrict the achievable active counts (identity by default;
        the tiered baseline rounds up to tier boundaries)."""
        return target

    # The fluid level --------------------------------------------------
    def start(self, k: int) -> None:
        """The window opens with k servers active."""

    def drain(self, k: int, dt: float, state: Dict[str, float]) -> float:
        """This sample's migration drain rate: the outstanding debt, at
        most the drain capacity."""
        if state["debt"] <= 0:
            return 0.0
        drain = min(state["debt"] / dt, self.drain_capacity(k))
        state["debt"] -= drain * dt
        return drain

    def growth_debt(self, k_old: int, k_new: int,
                    state: Dict[str, float]) -> float:
        """Bytes of re-integration triggered by growing k_old→k_new."""
        raise NotImplementedError

    def shrink_to(self, k_old: int, k_new: int) -> None:
        """An instant shrink moves nothing."""

    def departure_bytes(self, k: int) -> float:
        """What the next sequential departure re-replicates: a
        departing server's replicas, D*r/k bytes."""
        return self.cfg.dataset_bytes * REPLICAS / k

    def depart(self, k: int) -> float:
        """Carry out that departure; returns the bytes re-replicated."""
        return self.departure_bytes(k)

    def write(self, k: int, write_load: float, dt: float,
              state: Dict[str, float]) -> None:
        """The sample's writes (only selective tracks them)."""

    # ------------------------------------------------------------------
    def simulate(self, trace: LoadTrace,
                 requested: "np.ndarray | None" = None) -> PolicyResult:
        """Run the policy over *trace*.

        *requested* overrides the per-sample desired server count (a
        resizing controller's output); by default the policy chases
        the clairvoyant ideal, as the paper's analysis does.  The
        mechanical overheads (migration debt, clean-up delays, floors)
        apply either way.
        """
        return self._run(trace, requested, self)

    def _run(self, trace: LoadTrace, requested: "np.ndarray | None",
             level: "_PolicyBase") -> PolicyResult:
        """The rules, with every byte asked of *level*."""
        cfg = self.cfg
        ideal = ideal_servers(trace.load, cfg.per_server_bw, cfg.n_max)
        if requested is None:
            requested = ideal
        elif len(requested) != len(trace.load):
            raise ValueError("requested series length mismatch")
        dt = trace.dt
        k = int(requested[0]) if requested[0] >= self.floor else self.floor
        level.start(k)
        state: Dict[str, float] = {
            "debt": 0.0,            # migration bytes outstanding
            "dirty": 0.0,           # offloaded bytes (fluid selective)
            "removal_credit": 0.0,  # seconds of clean-up accumulated
            "migrated": 0.0,
            "rereplicated": 0.0,
        }
        out = np.empty(trace.load.size, dtype=int)

        for t in range(trace.load.size):
            load = trace.load[t]
            write_load = load * trace.write_fraction

            # While migration drains, the cluster must carry load +
            # drain.
            drain = level.drain(k, dt, state)
            state["migrated"] += drain * dt

            # Migration eats a slice of every server's disk; the extra
            # servers needed to keep the foreground whole is the drain
            # expressed in whole disks: k*psb*(1 - drain/(k*disk)) >=
            # load  <=>  k >= load/psb + drain/disk.
            target = int(min(cfg.n_max,
                             max(self.floor,
                                 int(requested[t])
                                 + math.ceil(drain / DISK_BW))))
            target = self.quantise_target(target)

            if target > k:
                state["debt"] += level.growth_debt(k, target, state)
                k = target           # growth is instant (§II-C)
            elif target < k and not (
                    self.debt_blocks_shrink
                    and state["debt"] > self.drain_capacity(k) * dt):
                if self.sequential_departures:
                    k = self._depart_in_turn(k, target, dt, state, level)
                else:
                    level.shrink_to(k, target)
                    k = target

            level.write(k, write_load, dt, state)
            out[t] = k

        return PolicyResult(
            name=self.name, servers=out, dt=dt,
            migrated_bytes=state["migrated"],
            rereplicated_bytes=state["rereplicated"],
            ideal=ideal,
        )

    @staticmethod
    def _depart_in_turn(k: int, target: int, dt: float,
                        state: Dict[str, float], level: "_PolicyBase"
                        ) -> int:
        """Sequential removal: each departing server's replicas
        re-replicate at the cluster's recovery bandwidth before the
        next removal; the credit carries over until the target is
        reached."""
        state["removal_credit"] += dt
        while k > target:
            rate = RECOVERY_FRACTION * k * DISK_BW
            needed = level.departure_bytes(k) / rate
            if state["removal_credit"] < needed:
                break
            state["removal_credit"] -= needed
            state["rereplicated"] += level.depart(k)
            k -= 1
        if k <= target:
            state["removal_credit"] = 0.0
        return k


class OriginalCHPolicy(_PolicyBase):
    """The unmodified consistent-hashing baseline."""

    name = "original-ch"
    sequential_departures = True

    @property
    def floor(self) -> int:
        return REPLICAS

    def growth_debt(self, k_old: int, k_new: int,
                    state: Dict[str, float]) -> float:
        # Added servers rejoin empty; the ring maps (k_new-k_old)/k_new
        # of all stored replicas onto them.
        stored = self.cfg.dataset_bytes * REPLICAS
        return stored * (k_new - k_old) / k_new


class _ElasticPolicyBase(_PolicyBase):
    """Shared by the primary-server policies: equal-work layout with
    instant resizing floored at the primary count, and growth that
    re-integrates everything the layout maps onto the re-added ranks."""

    @property
    def floor(self) -> int:
        return self.cfg.p

    def _shares(self) -> np.ndarray:
        return _equal_work_shares(self.cfg.n_max, self.cfg.p,
                                  REPLICAS)

    def growth_debt(self, k_old: int, k_new: int,
                    state: Dict[str, float]) -> float:
        # Over-migration: everything the layout maps onto the re-added
        # ranks, valid or stale alike.
        shares = self._shares()
        stored = self.cfg.dataset_bytes * REPLICAS
        return stored * float(shares[k_old:k_new].sum())


class PrimaryFullPolicy(_ElasticPolicyBase):
    """Primary servers + equal-work layout, full re-integration."""

    name = "primary-full"


class PrimarySelectivePolicy(_ElasticPolicyBase):
    """Primary servers + equal-work layout + selective, rate-limited
    re-integration (the paper's complete system)."""

    name = "primary-selective"
    # Shrink stays instant even while draining: Algorithm 2 simply
    # skips entries whose version has no fewer servers than the current
    # one, so pending work never blocks sizing down.
    debt_blocks_shrink = False

    def drain_capacity(self, k: int) -> float:
        # The token bucket caps re-integration traffic.
        return min(SELECTIVE_RATE_LIMIT,
                   super().drain_capacity(k))

    def write(self, k: int, write_load: float, dt: float,
              state: Dict[str, float]) -> None:
        if k >= self.cfg.n_max:
            return
        shares = self._shares()
        offload_share = float(shares[k:].sum())
        state["dirty"] += write_load * REPLICAS * offload_share * dt

    def growth_debt(self, k_old: int, k_new: int,
                    state: Dict[str, float]) -> float:
        # Only the dirty (offloaded) bytes that map onto the re-added
        # ranks move; the rest of the pool stays dirty until the ranks
        # holding it return.
        shares = self._shares()
        inactive = float(shares[k_old:].sum())
        if inactive <= 0 or state["dirty"] <= 0:
            return 0.0
        added = float(shares[k_old:k_new].sum())
        portion = state["dirty"] * (added / inactive)
        state["dirty"] -= portion
        return portion


class GreenCHTPolicy(_ElasticPolicyBase):
    """The GreenCHT-style tiered baseline (§VI related work).

    GreenCHT (Zhao et al., MSST'15) partitions the servers into power
    *tiers*; a whole tier powers down or up together, with replicas
    spread across tiers so a tier shutdown never loses data.  Its
    weakness — the reason the paper builds per-server elasticity — is
    granularity: the active count is quantised to tier boundaries, so
    every resize rounds *up* to the next whole tier.

    Model: tier boundaries at ``p`` (the always-on tier, mirroring the
    replica-holding top tier) followed by ``NUM_TIERS - 1`` equal
    slices of the rest.  Like the paper's "full" configuration it does
    not track dirty data, so tier power-ups re-integrate everything
    mapped onto the tier.
    """

    name = "greencht"

    def __init__(self, config: PolicyConfig) -> None:
        super().__init__(config)
        boundaries = [config.p]
        rest = config.n_max - config.p
        for i in range(1, NUM_TIERS):
            boundaries.append(config.p + round(rest * i / (NUM_TIERS - 1)))
        #: Legal active counts, ascending (tier prefix sums).
        self.boundaries = sorted(set(boundaries))

    def _quantise(self, k: int) -> int:
        """Round up to the next tier boundary."""
        for b in self.boundaries:
            if k <= b:
                return b
        return self.boundaries[-1]

    @property
    def floor(self) -> int:
        return self.boundaries[0]

    def quantise_target(self, target: int) -> int:
        return self._quantise(target)


_POLICIES = {
    "original-ch": OriginalCHPolicy,
    "primary-full": PrimaryFullPolicy,
    "primary-selective": PrimarySelectivePolicy,
    "greencht": GreenCHTPolicy,
}


def simulate_policy(name: str, trace: LoadTrace, config: PolicyConfig,
                    requested: "np.ndarray | None" = None) -> PolicyResult:
    """Run one named policy over *trace* (optionally chasing a
    controller's *requested* series instead of the clairvoyant
    ideal)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(config).simulate(trace, requested=requested)
