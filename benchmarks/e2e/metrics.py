"""The benchmark's vocabulary: every metric name, unit and direction.

``BENCHMARK.json`` lists exactly these names (the self-check compares
them); README.md says which end-to-end metric and workload each
per-layer metric is expected to move.

Two kinds of number appear:

* **host cost** — seconds, MB and rates of the machine running the
  simulator; noisy, compared against a bound;
* **simulated result / count** — deterministic for a fixed seed
  (``exact=True``); any difference between two runs of the same code
  is a bug in the benchmark or the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping

from tracing import LAYERS, ROOT, Recorder
from workloads import Outcome, moved_bytes

__all__ = ["E2E", "PER_LAYER", "LayerContext", "derive_per_layer"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by.
    bound: float


#: Bounded host-cost metrics, reported by every workload with tracing off.
#: The three times are reference-host seconds (``hostspeed.py``).  The
#: time bounds are the widest the driver allows: the reference host is
#: shared and its speed drifts (results/layers.md has the spreads).
E2E = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("ops_per_s", "ops/s", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
)


@dataclass
class LayerContext:
    """Everything a per-layer metric may read."""

    rec: Recorder                    # the traced rep
    counts: Mapping[str, object]     # OBS.metrics snapshot, untraced rep
    out: Outcome                     # untraced rep's outcome
    base_s: float                    # untraced median wall
    traced_s: float                  # traced rep wall
    taxes: Mapping[str, float]       # tax rep walls, by kind

    @property
    def root_s(self) -> float:
        return self.rec.total_s(ROOT)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)

    def share(self, seconds: float) -> float:
        return seconds / self.root_s if self.root_s > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _table_hit_ratio(rec: Recorder) -> float:
    """Placements answered from an already-filled slot table: one minus
    reference walks (slot fills) per placement asked for."""
    asked = rec.calls("core.locate") + rec.units("core.locate_bulk")
    return 1.0 - rec.calls("core.kernel.fill") / asked if asked else 0.0


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    get: Callable[[LayerContext], float]
    #: Deterministic for a fixed seed (counts and simulated results).
    exact: bool = False


def _calls(prefix: str) -> Callable[[LayerContext], float]:
    return lambda c: c.rec.calls(prefix)


def _self(*prefixes: str) -> Callable[[LayerContext], float]:
    return lambda c: sum(c.rec.self_s(p) for p in prefixes)


def _obs(key: str) -> Callable[[LayerContext], float]:
    return lambda c: c.count(key)


def _extra(key: str) -> Callable[[LayerContext], float]:
    return lambda c: c.out.extras.get(key, 0.0)


def _tax(kind: str, added: bool) -> Callable[[LayerContext], float]:
    """*added*: cost the feature adds on top of the default run, as a
    share of it; otherwise: share of the default run the feature is."""
    def get(c: LayerContext) -> float:
        wall = c.taxes.get(kind)
        if wall is None or c.base_s <= 0:
            return 0.0
        return wall / c.base_s - 1.0 if added else 1.0 - wall / c.base_s
    return get


def _count(name: str, get) -> PerLayer:
    return PerLayer(name, "count", "lower", get, exact=True)


def _seconds(name: str, *prefixes: str) -> PerLayer:
    return PerLayer(name, "s", "lower", _self(*prefixes))


def _layer_rows(layer: str) -> List[PerLayer]:
    return [
        _count(f"{layer}.calls", _calls(layer)),
        _seconds(f"{layer}.self_s", layer),
        PerLayer(f"{layer}.self_share", "fraction", "lower",
                 lambda c: c.share(c.rec.self_s(layer))),
    ]


PER_LAYER: List[PerLayer] = [
    row for layer in LAYERS for row in _layer_rows(layer)
] + [
    # hashring ----------------------------------------------------------
    _count("hashring.hash64.calls", _calls("hashring.hash64")),
    _seconds("hashring.hash64.self_s", "hashring.hash64"),
    _count("hashring.bulk_hash.keys",
           lambda c: c.rec.units("hashring.bulk_hash")),
    _seconds("hashring.bulk_hash.self_s", "hashring.bulk_hash"),
    _count("hashring.successor.calls", _calls("hashring.successor")),
    _seconds("hashring.successor.self_s", "hashring.successor"),
    _count("hashring.ring_rebuilds", _obs("ring.rebuilds")),
    # core --------------------------------------------------------------
    _count("core.locate.calls", _calls("core.locate")),
    _seconds("core.locate.self_s", "core.locate"),
    _count("core.locate_bulk.rows",
           lambda c: c.rec.units("core.locate_bulk")),
    _seconds("core.locate_bulk.self_s", "core.locate_bulk"),
    _count("core.record_write.calls", _calls("core.record_write")),
    _seconds("core.record_write.self_s", "core.record_write"),
    _count("core.set_active.calls", _calls("core.set_active")),
    _seconds("core.set_active.self_s", "core.set_active"),
    _count("core.kernel.slot_fills", _calls("core.kernel.fill")),
    _seconds("core.kernel.fill.self_s", "core.kernel.fill"),
    PerLayer("core.kernel.table_hit_ratio", "fraction", "higher",
             lambda c: _table_hit_ratio(c.rec), exact=True),
    _count("core.kernel.invalidations", _obs("kernel.invalidations")),
    _count("core.dirty.ops", _calls("core.dirty")),
    _seconds("core.dirty.self_s", "core.dirty"),
    _count("core.reintegration.tasks", _obs("reintegration.migrated")),
    _seconds("core.reintegration.self_s", "core.reintegration"),
    # cluster -----------------------------------------------------------
    _count("cluster.write.calls", _calls("cluster.write")),
    _seconds("cluster.write.self_s", "cluster.write"),
    _count("cluster.read.calls", _calls("cluster.read")),
    _seconds("cluster.read.self_s", "cluster.read"),
    _count("cluster.resize.calls", _calls("cluster.resize")),
    _seconds("cluster.resize.self_s", "cluster.resize"),
    _count("cluster.audit.calls", _calls("cluster.audit")),
    _seconds("cluster.audit.self_s", "cluster.audit"),
    _seconds("cluster.reintegrate.self_s", "cluster.reintegrate"),
    _seconds("cluster.recovery.self_s", "cluster.recovery"),
    PerLayer("cluster.migrated_bytes", "bytes", "lower",
             lambda c: moved_bytes(c.counts), exact=True),
    # simulation --------------------------------------------------------
    _count("simulation.event.count", _obs("engine.events")),
    # Event loop minus handlers (handlers have spans of their own).
    _seconds("simulation.step.self_s", "simulation.step",
             "simulation.schedule"),
    _count("simulation.tick.count", _obs("engine.ticks")),
    _seconds("simulation.iostep.self_s", "simulation.iostep"),
    _count("simulation.solve.count", _obs("bandwidth.solves")),
    _count("simulation.solve.rounds", _obs("bandwidth.filling_rounds")),
    _seconds("simulation.solve.self_s", "simulation.solve"),
    PerLayer("simulation.solve_reuse_ratio", "fraction", "higher",
             lambda c: _ratio(c.count("bandwidth.reused"),
                              c.count("bandwidth.reused")
                              + c.count("bandwidth.solves")), exact=True),
    _count("simulation.flows.started", _obs("flows.started")),
    _count("simulation.flows.interrupted", _obs("flows.interrupted")),
    # kvstore -----------------------------------------------------------
    _count("kvstore.write.calls", _calls("kvstore.write")),
    _seconds("kvstore.write.self_s", "kvstore.write"),
    _count("kvstore.read.calls", _calls("kvstore.read")),
    _seconds("kvstore.read.self_s", "kvstore.read"),
    _count("kvstore.view_change.calls", _calls("kvstore.view_change")),
    _seconds("kvstore.view_change.self_s", "kvstore.view_change"),
    _count("kvstore.audit.calls", _calls("kvstore.audit")),
    _seconds("kvstore.audit.self_s", "kvstore.audit"),
    _count("kvstore.repair_copies", _extra("repair_copies")),
    PerLayer("kvstore.write_fail_ratio", "fraction", "lower",
             _extra("write_fail_ratio"), exact=True),
    # faults ------------------------------------------------------------
    _count("faults.injected", _obs("faults.injected")),
    _count("faults.transfers.retried", _obs("transfers.retried")),
    _count("faults.transfers.quarantined", _obs("transfers.quarantined")),
    PerLayer("faults.retry_ratio", "fraction", "lower",
             lambda c: _ratio(c.count("transfers.retried"),
                              c.count("transfers.started")), exact=True),
    _seconds("faults.poll.self_s", "faults.poll"),
    # serving -----------------------------------------------------------
    _count("serving.enqueue.calls", _calls("serving.enqueue")),
    _seconds("serving.enqueue.self_s", "serving.enqueue"),
    _seconds("serving.tick.self_s", "serving.tick"),
    _seconds("serving.controller.self_s", "serving.controller"),
    _seconds("serving.clients.self_s", "serving.clients"),
    PerLayer("serving.reject_ratio", "fraction", "lower",
             _extra("reject_ratio"), exact=True),
    _count("serving.max_queue_depth", _extra("max_queue_depth")),
    # obs ---------------------------------------------------------------
    _count("obs.emit.calls", _calls("obs.emit")),
    _seconds("obs.emit.self_s", "obs.emit"),
    _count("obs.checker.events", _calls("obs.checker")),
    _seconds("obs.checker.self_s", "obs.checker"),
    PerLayer("obs.checker_tax_share", "fraction", "lower",
             _tax("nocheck", added=False)),
    PerLayer("obs.jsonl_tax_share", "fraction", "lower",
             _tax("jsonl", added=True)),
    PerLayer("obs.profiler_tax_share", "fraction", "lower",
             _tax("profiler", added=True)),
    # the benchmark itself ----------------------------------------------
    PerLayer("bench.trace_overhead_ratio", "ratio", "lower",
             lambda c: _ratio(c.traced_s, c.base_s)),
    PerLayer("bench.attributed_share", "fraction", "higher",
             lambda c: 1.0 - c.share(c.rec.self_s("harness"))),
    # exact end-to-end results (simulated; zero where not applicable) ---
    PerLayer("sim_s_per_wall_s", "ratio", "higher",
             lambda c: _ratio(c.out.sim_s or 0.0, c.base_s)),
    PerLayer("ops_failed_share", "fraction", "lower",
             lambda c: _ratio(c.out.sim_failed, c.out.sim_attempted),
             exact=True),
    PerLayer("sim_p99_s", "sim-s", "lower",
             lambda c: c.out.sim_p99_s or 0.0, exact=True),
    PerLayer("sim_moved_gb", "GB", "lower",
             lambda c: moved_bytes(c.counts) / 1e9, exact=True),
    PerLayer("sim_client_mbps", "MB/s", "higher",
             lambda c: c.out.sim_client_mbps or 0.0, exact=True),
]


def derive_per_layer(ctx: LayerContext) -> Dict[str, float]:
    return {m.name: m.get(ctx) for m in PER_LAYER}
