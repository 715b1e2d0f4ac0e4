"""Span recorder and the shims that put it around each layer.

``src/`` is not edited: the layers are measured from outside, by
replacing public entry points with timing wrappers for the duration of
one *traced* rep.  Timed reps never see a shim.

The recorder is stack based.  Entering a wrapped call pushes a frame;
leaving it charges the duration to the call's name, adds it to the
parent frame's child time, and books ``duration - child time`` as the
name's *self* time — so nested layers never count a second twice.
Aggregates (calls, total, self, units) are always kept; raw spans
``(id, parent id, start, end)`` are kept up to
:attr:`Recorder.MAX_SPANS` per name.

Span names are ``<layer>.<entry point>`` with the layer a
``src/repro`` package name; :data:`LAYERS` lists them.  ``harness`` is
the root span around the workload's ``run`` plus event handlers that
are closures of a ``run_*`` harness.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "ROOT", "TARGETS", "UNITS_OF", "Recorder", "Shims"]

LAYERS = ("hashring", "core", "cluster", "simulation", "kvstore",
          "faults", "serving", "obs", "harness")

#: Name of the root span (the workload's whole ``run`` call).
ROOT = "harness.run"


class Recorder:
    """Aggregates and raw spans of one traced rep."""

    MAX_SPANS = 10_000

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: Open frames, innermost last: ``[span id, child seconds]``.
        self.stack: List[list] = []
        #: name -> ``[calls, total_s, self_s, units]``.
        self.agg: Dict[str, list] = {}
        #: name -> ``[(span id, parent id, start, end), ...]``.
        self.spans: Dict[str, List[Tuple[int, int, float, float]]] = {}
        self.next_id = 1

    def wrap(self, fn: Callable, name: str,
             units_of: Optional[Callable[[object], int]] = None) -> Callable:
        """*fn* timed as span *name*.  *units_of(result)* adds to the
        name's unit count (rows of a bulk call, keys of a bulk hash).
        The span closes on an exception too, which then propagates."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        spans = self.spans.setdefault(name, [])
        rec, stack, clock, cap = self, self.stack, self.clock, self.MAX_SPANS

        def shim(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [rec.next_id, 0.0]
            rec.next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if units_of is not None:
                    agg[3] += units_of(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(spans) < cap:
                    spans.append((frame[0], parent[0] if parent else 0,
                                  t0, t1))

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        shim.__qualname__ = getattr(fn, "__qualname__", name)
        return shim

    def run(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside span *name* (the root span)."""
        return self.wrap(fn, name)(*args)

    # -- views ---------------------------------------------------------
    def calls(self, prefix: str) -> int:
        return sum(a[0] for n, a in self.agg.items() if _under(n, prefix))

    def self_s(self, prefix: str) -> float:
        return sum(a[2] for n, a in self.agg.items() if _under(n, prefix))

    def units(self, prefix: str) -> int:
        return sum(a[3] for n, a in self.agg.items() if _under(n, prefix))

    def total_s(self, name: str) -> float:
        return self.agg[name][1] if name in self.agg else 0.0

    def document(self, workload: str, rep: int) -> dict:
        """The ``trace_<workload>.json`` payload: times are seconds
        since the first recorded span started."""
        origin = min((s[0][2] for s in self.spans.values() if s),
                     default=0.0)
        return {
            "workload": workload,
            "span_fields": ["id", "parent_id", "start_s", "end_s"],
            "rep": rep,
            "max_spans_per_name": self.MAX_SPANS,
            "names": {
                name: {
                    "layer": name.split(".", 1)[0],
                    "calls": a[0], "total_s": a[1], "self_s": a[2],
                    "units": a[3],
                    "spans": [[sid, pid, round(t0 - origin, 7),
                               round(t1 - origin, 7)]
                              for sid, pid, t0, t1 in self.spans[name]],
                } for name, a in sorted(self.agg.items())},
        }


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _of(owner: str, *names: str) -> Tuple[str, ...]:
    return tuple(f"{owner}.{name}" for name in names)


_HASHING = "repro.hashring.hashing:"
_RING = "repro.hashring.ring:HashRing"
_ECH = "repro.core.elastic:ElasticConsistentHash"
_DIRTY = "repro.core.dirty_table:DirtyTable"
_REINT = "repro.core.reintegration:ReintegrationEngine"
_CLUSTER = "repro.cluster.cluster:ElasticCluster"
_SIM = "repro.simulation.engine:Simulator"
_IO = "repro.simulation.iomodel:IOModel"
_KV = "repro.kvstore.replicated:ReplicatedKVStore"
_INJECTOR = "repro.faults.injector:FaultInjector"
_TRANSFERS = "repro.faults.transfers:TransferManager"
_COORD = "repro.serving.coordinator:AdmissionCoordinator"

#: Span name -> the entry points timed under it, each
#: ``"module:function"`` or ``"module:Class.method"``.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "hashring.hash64": (_HASHING + "hash64",),
    "hashring.bulk_hash": (_HASHING + "bulk_hash",),
    "hashring.vnode_positions": (_HASHING + "vnode_positions",),
    "hashring.successor": _of(_RING, "successor_slot"),
    "hashring.bulk_successor": _of(_RING, "bulk_successor_slots"),

    "core.locate": _of(_ECH, "locate"),
    "core.locate_bulk": _of(_ECH, "locate_bulk_positions"),
    "core.record_write": _of(_ECH, "record_write"),
    "core.set_active": _of(_ECH, "set_active"),
    "core.mark_failed": _of(_ECH, "mark_failed"),
    "core.mark_repaired": _of(_ECH, "mark_repaired"),
    # One reference ring walk per slot fill (the kernel's cold path).
    "core.kernel.fill": ("repro.core.placement:place_original_from_slot",
                         "repro.core.placement:place_primary_from_slot"),
    "core.dirty.insert": _of(_DIRTY, "insert"),
    "core.dirty.remove": _of(_DIRTY, "remove", "remove_oid"),
    "core.dirty.entries": _of(_DIRTY, "entries"),
    "core.dirty.contains": _of(_DIRTY, "contains_oid"),
    "core.dirty.clear": _of(_DIRTY, "clear"),
    "core.reintegration.step": _of(_REINT, "step"),
    "core.reintegration.plan": _of(_REINT, "plan_pass"),
    "core.reintegration.commit": _of(_REINT, "commit_entries"),
    "core.reintegration.backlog": _of(_REINT, "total_pending_bytes"),

    "cluster.build": _of(_CLUSTER, "__init__"),
    "cluster.write": _of(_CLUSTER, "write"),
    "cluster.read": _of(_CLUSTER, "read", "read_with_fallback"),
    "cluster.resize": _of(_CLUSTER, "resize"),
    "cluster.audit": _of(_CLUSTER, "replication_audit"),
    "cluster.reintegrate": _of(
        _CLUSTER, "run_selective_reintegration", "run_full_reintegration",
        "plan_selective_reintegration", "commit_selective_reintegration",
        "selective_backlog_bytes"),
    "cluster.recovery": _of(
        _CLUSTER, "crash_server", "commit_crash_recovery",
        "crash_recovery_outlook", "repair_server"),

    "simulation.step": _of(_SIM, "step", "run_until"),
    "simulation.iostep": _of(_IO, "step", "run"),
    "simulation.solve": ("repro.simulation.bandwidth:max_min_fair",),
    "simulation.flows": _of("repro.simulation.flows:FlowSet",
                            "add", "remove", "interrupt"),

    "kvstore.write": _of(_KV, "set", "incr", "delete", "rpush", "lpush",
                         "lpop", "rpop", "lrem"),
    "kvstore.read": _of(_KV, "get", "exists", "lrange", "llen", "lindex"),
    "kvstore.view_change": _of(_KV, "propose_view", "commit_view",
                               "change_view"),
    "kvstore.audit": _of(_KV, "audit"),
    "kvstore.repair": _of(_KV, "anti_entropy"),
    "kvstore.node_fault": _of(_KV, "crash_node", "repair_node"),

    "faults.inject": _of(_INJECTOR, "fire_trigger"),
    "faults.ambient": _of(_INJECTOR, "link_blocked", "capacity_factors"),
    "faults.poll": _of(_TRANSFERS, "poll"),
    "faults.transfers": _of(_TRANSFERS, "submit", "on_crash",
                            "on_link_loss"),

    "serving.enqueue": _of(_COORD, "enqueue"),
    "serving.tick": _of(_COORD, "begin_tick", "end_tick"),
    "serving.failover": _of(_COORD, "failover", "shutdown"),
    "serving.controller": _of(
        "repro.serving.flowcontrol:AdaptiveQueueController",
        "admit", "completion_delay", "queue_bound"),
    "serving.clients": ("repro.serving.clients:ClosedLoopPopulation.start",
                        "repro.serving.clients:OpenLoopPopulation.start"),

    "obs.emit": ("repro.obs.trace:TraceBus.emit",),
    "obs.checker": ("repro.obs.invariants:InvariantSuite.observe",),
    "obs.finish": ("repro.obs.invariants:InvariantSuite.finish",),
    "obs.spans": ("repro.obs.spans:SpanTracker.begin",
                  "repro.obs.spans:Span.end"),
}

#: Spans that also count units of work, as ``units_of(result)``.
UNITS_OF: Dict[str, Callable[[object], int]] = {
    "hashring.bulk_hash": len,      # keys hashed
    "core.locate_bulk": len,        # rows placed
}

#: Span name for an event handler, by the module that defines it.  Any
#: other callback is a closure of a ``run_*`` harness: harness time.
_HANDLER_NAMES = {
    "repro.serving.clients": "serving.clients",
    "repro.faults.injector": "faults.inject",
}


def _handler_name(fn: Callable) -> str:
    return _HANDLER_NAMES.get(getattr(fn, "__module__", None),
                              "harness.handler")


class Shims:
    """Installs the :data:`TARGETS` wrappers and takes them off again."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        #: ``(owner, attribute, original)`` in installation order.
        self.patched: List[Tuple[object, str, object]] = []

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, paths in TARGETS.items():
            for path in paths:
                self._wrap_target(name, path, UNITS_OF.get(name))
        self._wrap_event_handlers()

    def _wrap_target(self, name: str, path: str,
                     units_of: Optional[Callable]) -> None:
        module_name, _, dotted = path.partition(":")
        module = importlib.import_module(module_name)
        cls_name, _, attr = dotted.rpartition(".")
        if not cls_name:
            self._rebind_function(getattr(module, attr), name, units_of)
            return
        cls = getattr(module, cls_name)
        fn = vars(cls)[attr]
        if not isinstance(fn, FunctionType):
            raise TypeError(f"{path} is not a plain method")
        self._patch(cls, attr, self.rec.wrap(fn, name, units_of))

    def _rebind_function(self, fn: Callable, name: str,
                         units_of: Optional[Callable]) -> None:
        """A module-level function is usually imported *by name*: rebind
        every ``repro.*`` module attribute that is the original."""
        shim = self.rec.wrap(fn, name, units_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, shim)

    def _wrap_event_handlers(self) -> None:
        """``Simulator.step`` minus its handlers is the event loop: give
        every scheduled callback a span of its own, named after the
        layer that defines it."""
        from repro.simulation.engine import Simulator
        rec = self.rec
        schedule_at = vars(Simulator)["schedule_at"]

        def schedule_traced(sim, t, fn, *args):
            return schedule_at(sim, t, rec.wrap(fn, _handler_name(fn)),
                               *args)

        self._patch(Simulator, "schedule_at",
                    rec.wrap(schedule_traced, "simulation.schedule"))

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Is every wrapped attribute the original object again?"""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self.patched)
