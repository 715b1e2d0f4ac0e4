"""The instrumentation profiler: who steals time from whom.

This is the one module in ``src/`` that reads the wall clock to
measure anything, and the one that says what is measured.  It answers
the question Figures 3/7 are about — *where a whole run's time goes* —
and, through each frame's ``calls`` / ``wall_s`` / ``self_s``, "how
long does one lookup take" as well: engine event dispatch by callback,
kernel lookups, ``max_min_fair`` solves, migration and re-integration
phases, policy replays.  A :class:`Profiler` maintains a call-stack of
named frames and accounts two clocks to each node of the resulting
tree:

* **wall-clock seconds** (``perf_counter``) — cumulative (frame plus
  its children) and *self* (frame minus children), the flamegraph
  quantities;
* **simulation seconds** — how far the simulated clock advanced while
  the frame was innermost, attributed via :meth:`Profiler.advance_sim`
  at each IO tick, event dispatch and ``run_until``.

:data:`FRAMES` says what is framed; :func:`attach` wraps those entry
points only while a profiler is attached, so profiling off costs
nothing and the product code has no profiling branch.

Determinism contract
--------------------
Wall-clock numbers never enter the trace bus: the profiler is a
sibling of the metrics registry, not a trace producer, and its output
lands in its own JSON document (the same quarantine rule as the sweep
runner's ``run_info.json``).  A same-seed run with ``--profile-out``
therefore produces a byte-identical trace to one without.

Exports
-------
* :func:`profiling` — profile a block and write its document;
* :func:`profile_document` — the JSON profile (tree + flat hotspot
  aggregation + totals);
* :func:`collapsed_stacks` — semicolon-joined frame paths with integer
  self-microsecond counts, the format ``flamegraph.pl`` /
  speedscope / inferno consume;
* :func:`load_profile` — read a profile back, validated;
* :func:`render_profile` — the ``repro profile`` hotspot report.
"""

from __future__ import annotations

import importlib
import json
import math
from contextlib import contextmanager
from functools import partial, update_wrapper
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ProfileNode",
    "Profiler",
    "ProfileError",
    "ROOT_NAME",
    "FRAMES",
    "attach",
    "profiling",
    "profile_document",
    "collapsed_stacks",
    "load_profile",
    "render_profile",
]

#: Name of the implicit root frame (everything the profiler measured).
ROOT_NAME = "run"

#: Profile document schema version.
PROFILE_VERSION = 1


class ProfileError(ValueError):
    """A profile JSON document that cannot be parsed or lacks the
    expected shape."""


class ProfileNode:
    """One node of the frame tree: a component name at a stack path."""

    __slots__ = ("name", "calls", "wall", "wall_self", "sim", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.wall = 0.0        # cumulative (frame + children)
        self.wall_self = 0.0   # exclusive (frame minus children)
        self.sim = 0.0         # sim-seconds advanced while innermost
        self.children: Dict[str, "ProfileNode"] = {}

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "calls": self.calls,
            "wall_s": self.wall,
            "self_s": self.wall_self,
            "sim_s": self.sim,
        }
        if self.children:
            out["children"] = [self.children[k].to_dict()
                               for k in sorted(self.children)]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProfileNode({self.name!r}, calls={self.calls}, "
                f"wall={self.wall:.6f}, self={self.wall_self:.6f})")


class Profiler:
    """Hierarchical frame accounting with explicit push/pop.

    The clock is injectable so tests can drive the profiler with a
    deterministic counter and assert exact numbers.

    Examples
    --------
    >>> ticks = iter(range(100))
    >>> prof = Profiler(clock=lambda: float(next(ticks)))
    >>> prof.push("engine")
    >>> prof.push("kernel.locate")
    >>> prof.pop()
    >>> prof.pop()
    >>> prof.stop()
    >>> flat = prof.flat()
    >>> flat["kernel.locate"]["calls"]
    1
    """

    __slots__ = ("clock", "root", "_stack", "_sim_last", "_stopped")

    def __init__(self,
                 clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.root = ProfileNode(ROOT_NAME)
        #: Stack entries: [node, t_enter, child_wall_accumulated].
        self._stack: List[List[object]] = [[self.root, clock(), 0.0]]
        self._sim_last: Optional[float] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # frame stack
    # ------------------------------------------------------------------
    def push(self, name: str) -> None:
        """Enter a frame named *name* under the current frame."""
        parent: ProfileNode = self._stack[-1][0]  # type: ignore[assignment]
        self._stack.append([parent.child(name), self.clock(), 0.0])

    def pop(self) -> None:
        """Leave the innermost frame, charging its elapsed wall time."""
        if len(self._stack) <= 1:
            raise RuntimeError("profiler pop without matching push")
        node, t0, child_wall = self._stack.pop()
        dt = self.clock() - t0                    # type: ignore[operator]
        node.calls += 1                           # type: ignore[union-attr]
        node.wall += dt                           # type: ignore[union-attr]
        node.wall_self += max(                    # type: ignore[union-attr]
            0.0, dt - child_wall)                 # type: ignore[operator]
        self._stack[-1][2] += dt                  # type: ignore[operator]

    @property
    def depth(self) -> int:
        """Open frames beyond the root (0 when idle)."""
        return len(self._stack) - 1

    # ------------------------------------------------------------------
    # simulation clock
    # ------------------------------------------------------------------
    def advance_sim(self, t: float) -> None:
        """Attribute the simulated-time advance to *t* to the innermost
        open frame.  The first call only sets the baseline; a clock
        that moves backwards (a fresh Simulator in the same run)
        re-baselines rather than charging negative time."""
        last = self._sim_last
        if last is not None and t > last:
            node: ProfileNode = self._stack[-1][0]  # type: ignore[assignment]
            node.sim += t - last
        self._sim_last = t

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Close every open frame (crash-tolerant) and finalise the
        root's totals.  Idempotent."""
        if self._stopped:
            return
        while len(self._stack) > 1:
            self.pop()
        root, t0, child_wall = self._stack[0]
        dt = self.clock() - t0                    # type: ignore[operator]
        root.calls = 1                            # type: ignore[union-attr]
        root.wall = dt                            # type: ignore[union-attr]
        root.wall_self = max(                     # type: ignore[union-attr]
            0.0, dt - child_wall)                 # type: ignore[operator]
        self._stopped = True

    def flat(self) -> Dict[str, Dict[str, float]]:
        """Aggregate the tree by component name (the hotspot view):
        ``{name: {calls, wall_s, self_s, sim_s}}``.  ``wall_s`` sums
        the cumulative time of every tree node carrying the name, so a
        component reached through several paths reports its total."""
        out: Dict[str, Dict[str, float]] = {}

        def visit(node: ProfileNode) -> None:
            if node.name != ROOT_NAME:
                agg = out.setdefault(node.name, {
                    "calls": 0, "wall_s": 0.0, "self_s": 0.0, "sim_s": 0.0})
                agg["calls"] += node.calls
                agg["wall_s"] += node.wall
                agg["self_s"] += node.wall_self
                agg["sim_s"] += node.sim
            for name in sorted(node.children):
                visit(node.children[name])

        visit(self.root)
        return out

    @property
    def total_wall(self) -> float:
        return self.root.wall

    @property
    def total_sim(self) -> float:
        def total(node: ProfileNode) -> float:
            return node.sim + sum(total(c) for c in node.children.values())
        return total(self.root)


# ----------------------------------------------------------------------
# what is framed
# ----------------------------------------------------------------------
_ECH = "repro.core.elastic:ElasticConsistentHash."
_CLUSTER = "repro.cluster.cluster:ElasticCluster."

#: Frame name -> the entry points framed under it, ``"module:function"``
#: or ``"module:Class.method"``, each replaced in that namespace only
#: (``ideal_servers`` is ``policy:ideal`` in the trace analysis, not in
#: a policy replay).  A ``<...>`` part is filled per call.
FRAMES: Dict[str, Tuple[str, ...]] = {
    "kernel.locate": (_ECH + "locate",),
    "kernel.locate_bulk": (_ECH + "locate_bulk_positions",),
    "cluster.resize": (_CLUSTER + "resize",),
    "reintegration.selective": (_CLUSTER + "run_selective_reintegration",),
    "reintegration.plan": (_CLUSTER + "plan_selective_reintegration",),
    "reintegration.commit": (_CLUSTER + "commit_selective_reintegration",),
    "reintegration.full": (_CLUSTER + "run_full_reintegration",),
    "transfers.poll": ("repro.faults.transfers:TransferManager.poll",),
    "io.step": ("repro.simulation.iomodel:IOModel.step",),
    "bandwidth.max_min_fair": ("repro.simulation.flows:max_min_fair",),
    "workload.generate": ("repro.experiments.traces:generate_cc_a",
                          "repro.experiments.traces:generate_cc_b"),
    "policy:ideal": ("repro.policy.analysis:ideal_servers",),
    "policy:<name>": ("repro.policy.analysis:simulate_policy",),
    "engine:<label>": ("repro.simulation.engine:Simulator.schedule_at",),
}


def _framed(prof: Profiler, name: str, fn: Callable) -> Callable:
    def framed(*args, **kwargs):
        prof.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            prof.pop()
    return framed


def _tick_framed(prof: Profiler, name: str, fn: Callable) -> Callable:
    framed = _framed(prof, name, fn)

    def step(model, now, *args, **kwargs):
        prof.advance_sim(now)         # time up to the tick: the caller's
        return framed(model, now, *args, **kwargs)
    return step


def _policy_framed(prof: Profiler, name: str, fn: Callable) -> Callable:
    prefix = name.partition("<")[0]

    def simulate(policy, *args, **kwargs):
        return _framed(prof, prefix + policy, fn)(policy, *args, **kwargs)
    return simulate


def _handler_framed(prof: Profiler, name: str, fn: Callable) -> Callable:
    """``schedule_at`` that schedules a plain closure per event, named
    like its callback so the ``engine.event`` field is unchanged; fired
    after *prof* is detached, it only calls the callback."""
    from repro.simulation.engine import event_label
    prefix = name.partition("<")[0]

    def schedule_at(sim, t, callback, *args):
        label = event_label(callback)
        frame = prefix + label

        def handler(*cargs):
            if _attached is not prof:
                return callback(*cargs)
            prof.advance_sim(t)
            prof.push(frame)
            try:
                return callback(*cargs)
            finally:
                prof.pop()
        handler.__qualname__ = label
        return fn(sim, t, handler, *args)
    return schedule_at


def _sim_clock(prof: Profiler, fn: Callable) -> Callable:
    def run_until(sim, t):
        fn(sim, t)
        prof.advance_sim(t)
    return run_until


_FRAMERS = {"io.step": _tick_framed, "policy:<name>": _policy_framed,
            "engine:<label>": _handler_framed}
#: The attached profiler; ``(owner, attribute, original)`` per wrapped
#: entry point.  Process-wide, like the attributes they patch.
_attached: Optional[Profiler] = None
_patched: List[Tuple[object, str, object]] = []


def _wrap(path: str, make: Callable[[Callable], Callable]) -> None:
    """Replace entry point *path* by ``make(original)``.  A path that
    names nothing raises: a frame never goes silently missing."""
    module, _, dotted = path.partition(":")
    owner_name, _, attr = dotted.rpartition(".")
    owner = importlib.import_module(module)
    owner = getattr(owner, owner_name) if owner_name else owner
    if attr not in vars(owner):
        raise AttributeError(f"profile frame target {path!r} not found")
    original = vars(owner)[attr]
    _patched.append((owner, attr, original))
    setattr(owner, attr, update_wrapper(make(original), original))


def attach(prof: Optional[Profiler]) -> None:
    """Put back what an earlier call wrapped, then wrap every
    :data:`FRAMES` entry point (and ``run_until``'s sim clock) for
    *prof*.  ``attach(None)`` only restores; assigning ``OBS.profiler``
    calls this.  A bad path raises with every original in place."""
    global _attached
    while _patched:
        owner, attr, original = _patched.pop()
        setattr(owner, attr, original)
    _attached = prof
    if prof is None:
        return
    try:
        for name, paths in FRAMES.items():
            for path in paths:
                _wrap(path, partial(_FRAMERS.get(name, _framed), prof, name))
        _wrap("repro.simulation.engine:Simulator.run_until",
              partial(_sim_clock, prof))
    except BaseException:
        attach(None)
        raise


@contextmanager
def profiling(path: Optional[str], root: str, command: str,
              meta: Optional[Dict[str, object]] = None) -> Iterator[None]:
    """Profile the block under frame *root*; if it completes, write its
    :func:`profile_document` to *path*.  Detaches however the block
    ends; ``path=None`` profiles nothing."""
    if path is None:
        yield
        return
    from repro.obs.runtime import OBS   # runtime imports this module
    prof = Profiler()
    OBS.profiler = prof
    prof.push(root)
    try:
        yield
    finally:
        OBS.profiler = None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(profile_document(prof, command, meta),
                            indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def profile_document(prof: Profiler,
                     command: Optional[str] = None,
                     meta: Optional[Dict[str, object]] = None
                     ) -> Dict[str, object]:
    """The JSON profile for one run.  Call after :meth:`Profiler.stop`
    (stops implicitly otherwise)."""
    prof.stop()
    doc: Dict[str, object] = {
        "kind": "repro.profile",
        "version": PROFILE_VERSION,
        "command": command,
        "total_wall_s": prof.total_wall,
        "total_sim_s": prof.total_sim,
        "unattributed_s": prof.root.wall_self,
        "root": prof.root.to_dict(),
        "flat": prof.flat(),
    }
    if meta:
        doc["meta"] = dict(meta)
    return doc


def collapsed_stacks(root: Dict[str, object]) -> List[str]:
    """Flamegraph-collapsed lines from a profile's ``root`` dict:
    ``frame;frame;frame <self-microseconds>`` per tree node with
    non-zero self time, root included as the base frame.  Integer
    counts (flamegraph.pl's unit); nodes rounding to zero are
    dropped."""
    lines: List[str] = []

    def visit(node: Dict[str, object], path: Tuple[str, ...]) -> None:
        here = path + (str(node.get("name", "?")),)
        micros = int(round(float(node.get("self_s", 0.0)) * 1e6))
        if micros > 0:
            lines.append(";".join(here) + f" {micros}")
        for child in node.get("children") or []:
            visit(child, here)

    visit(root, ())
    return lines


def _finite(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def load_profile(path: str) -> Dict[str, object]:
    """Read a ``--profile-out`` document back, validating its shape:
    finite numeric totals, and finite numeric ``calls`` / ``wall_s`` /
    ``self_s`` / ``sim_s`` in every ``flat`` entry.  Raises
    :class:`ProfileError` on anything that is not a v1 profile."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProfileError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ProfileError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "repro.profile":
        raise ProfileError(
            f"{path}: not a repro profile document "
            f"(expected kind 'repro.profile')")
    if not isinstance(doc.get("root"), dict) \
            or not isinstance(doc.get("flat"), dict):
        raise ProfileError(f"{path}: profile document missing "
                           f"'root'/'flat' sections")
    for key in ("total_wall_s", "total_sim_s", "unattributed_s"):
        if not _finite(doc.get(key)):
            raise ProfileError(f"{path}: {key!r} is not a finite number")
    fields = ("calls", "wall_s", "self_s", "sim_s")
    for name, entry in doc["flat"].items():
        if not (isinstance(entry, dict)
                and all(_finite(entry.get(k)) for k in fields)):
            raise ProfileError(f"{path}: flat entry {name!r} needs "
                               f"finite numeric {', '.join(fields)}")
    return doc


# ----------------------------------------------------------------------
# the `repro profile` report
# ----------------------------------------------------------------------
#: Frame-name prefix of engine event dispatch (per-callback frames).
ENGINE_PREFIX = "engine:"


def render_profile(doc: Dict[str, object], top: int = 15) -> str:
    """Hotspot report for one profile document: coverage line, top-N
    self-time table, and the per-event-kind dispatch rates."""
    from repro.metrics.report import render_table

    if top < 1:
        raise ValueError("--top must be >= 1")
    total = float(doc["total_wall_s"])
    total_sim = float(doc["total_sim_s"])
    attributed = max(0.0, total - float(doc["unattributed_s"]))
    coverage = (attributed / total * 100.0) if total > 0 else 0.0
    flat: Dict[str, Dict[str, float]] = doc["flat"]  # type: ignore[assignment]

    lines: List[str] = [
        f"profile — repro {doc.get('command') or '?'}",
        f"measured wall-clock : {total:.6f} s "
        f"({coverage:.1f}% attributed to named components)",
        f"simulated time      : {total_sim:g} s",
    ]

    # Hotspots by self time; ties (identical timings from a fake or
    # coarse clock) break by name so the table is stable.
    names = sorted(flat,
                   key=lambda k: (-flat[k]["self_s"], k))[:top]
    rows = []
    for name in names:
        f = flat[name]
        pct = (f["self_s"] / total * 100.0) if total > 0 else 0.0
        rows.append([
            name,
            int(f["calls"]),
            f"{f['self_s']:.6f}",
            f"{f['wall_s']:.6f}",
            f"{pct:.1f}",
            "-" if f["sim_s"] == 0 else f"{f['sim_s']:g}",
        ])
    lines += ["", render_table(
        ["component", "calls", "self (s)", "cum (s)", "self %", "sim (s)"],
        rows, title=f"top {len(rows)} hotspots by self time")]

    engine = sorted(k for k in flat if k.startswith(ENGINE_PREFIX))
    if engine:
        erows = []
        for name in engine:
            f = flat[name]
            rate = f["calls"] / f["wall_s"] if f["wall_s"] > 0 else 0.0
            erows.append([
                name[len(ENGINE_PREFIX):],
                int(f["calls"]),
                f"{f['wall_s']:.6f}",
                "-" if f["sim_s"] == 0 else f"{f['sim_s']:g}",
                f"{rate:,.0f}",
            ])
        lines += ["", render_table(
            ["event callback", "events", "wall (s)", "sim (s)",
             "events/s (wall)"],
            erows, title="engine event dispatch")]
    return "\n".join(lines)
