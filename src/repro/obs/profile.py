"""The instrumentation profiler: who steals time from whom.

This is the one module in ``src/`` that reads the wall clock to
measure anything.  It answers the question Figures 3/7 are about —
*where a whole run's time goes* — and, through each frame's ``calls`` /
``wall_s`` / ``self_s``, "how long does one lookup take" as well:
engine event dispatch by callback,
kernel lookups, ``max_min_fair`` solves, migration and re-integration
phases, policy replays.  A :class:`Profiler` maintains a call-stack of
named frames and accounts two clocks to each node of the resulting
tree:

* **wall-clock seconds** (``perf_counter``) — cumulative (frame plus
  its children) and *self* (frame minus children), the flamegraph
  quantities;
* **simulation seconds** — how far the simulated clock advanced while
  the frame was innermost, attributed via :meth:`Profiler.advance_sim`
  by the engine/IO tick drivers.

Determinism contract
--------------------
Wall-clock numbers never enter the trace bus: the profiler is a
sibling of the metrics registry, not a trace producer, and its output
lands in its own JSON document (the same quarantine rule as the sweep
runner's ``run_info.json``).  A same-seed run with ``--profile-out``
therefore produces a byte-identical trace to one without.

The hot-path guard is one attribute load and a ``None`` check
(``prof = OBS.profiler``; ``if prof is not None``), so disabled
profiling stays near-free.

Exports
-------
* :func:`profile_document` — the JSON profile (tree + flat hotspot
  aggregation + totals);
* :func:`collapsed_stacks` — semicolon-joined frame paths with integer
  self-microsecond counts, the format ``flamegraph.pl`` /
  speedscope / inferno consume;
* :func:`load_profile` / :func:`flatten` — read a profile back;
* :func:`render_profile` — the ``repro profile`` hotspot report.
"""

from __future__ import annotations

import json
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ProfileNode",
    "Profiler",
    "ProfileError",
    "ROOT_NAME",
    "profiled",
    "profile_document",
    "collapsed_stacks",
    "load_profile",
    "flatten",
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

    def frame(self, name: str) -> "_Frame":
        """``with prof.frame("x"): ...`` — push now, pop on exit."""
        return _Frame(self, name)

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


class _Frame:
    """Context manager pushing/popping one profiler frame."""

    __slots__ = ("_prof", "_name")

    def __init__(self, prof: Profiler, name: str) -> None:
        self._prof = prof
        self._name = name

    def __enter__(self) -> "_Frame":
        self._prof.push(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._prof.pop()


def profiled(name: str) -> Callable:
    """Decorator framing every call of a function as *name* under the
    active profiler.  For cool paths (resize, re-integration passes,
    policy replays): it costs one wrapper call even when profiling is
    off, so per-object hot paths inline the guard instead."""
    def deco(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            from repro.obs.runtime import OBS
            prof = OBS.profiler
            if prof is None:
                return fn(*args, **kwargs)
            prof.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                prof.pop()
        return wrapper
    return deco


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


def load_profile(path: str) -> Dict[str, object]:
    """Read a ``--profile-out`` document back, validating its shape.
    Raises :class:`ProfileError` on anything that is not a v1 profile.
    """
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
    return doc


def flatten(doc: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """The hotspot aggregation of a loaded profile document."""
    flat = doc.get("flat")
    if not isinstance(flat, dict):
        raise ProfileError("profile document has no 'flat' section")
    return flat  # type: ignore[return-value]


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
    total = float(doc.get("total_wall_s") or 0.0)
    total_sim = float(doc.get("total_sim_s") or 0.0)
    unattributed = float(doc.get("unattributed_s") or 0.0)
    attributed = max(0.0, total - unattributed)
    coverage = (attributed / total * 100.0) if total > 0 else 0.0
    flat = flatten(doc)

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
