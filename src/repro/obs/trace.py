"""The trace bus: structured events with pluggable sinks.

Every interesting state transition in the simulator — an engine tick, a
flow starting or draining, an object migrating, a server changing power
state — is a *trace event*: a flat dict with a ``kind`` (dotted,
namespaced by subsystem), a simulation timestamp ``t``, and arbitrary
JSON-serialisable fields.  Producers call
:meth:`TraceBus.emit(kind, t, **fields) <TraceBus.emit>`; consumers
attach sinks.

Three sinks cover the use cases:

* :class:`RingBufferSink` — bounded in-memory capture (tests, REPL
  archaeology);
* :class:`JSONLSink` — one JSON object per line, the ``--trace-out``
  format that :func:`read_jsonl` parses back field-for-field;
* :class:`NullSink` — swallows events; attaching it keeps the bus
  "active" (emit cost is paid) without retaining anything, which is
  what the overhead guard measures.

With **no** sink attached, :meth:`TraceBus.emit` returns after a single
truthiness check — the always-on instrumentation in the hot paths costs
one branch.  Producers that would build expensive field dicts should
guard on :attr:`TraceBus.active` first; per-event producers guard on
:meth:`TraceBus.takes`, which also counts an event no sink takes (the
hottest ones read its subscription table, :attr:`TraceBus.takers`,
and count the skipped event themselves).

Timestamps are *simulation* time, never wall-clock, so two identically
seeded runs emit identical traces.  Drivers that own a clock publish it
via :attr:`TraceBus.clock`; emitters without their own notion of time
pass ``t=None`` and inherit the bus clock.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from typing import IO, Dict, FrozenSet, Iterable, List, Optional, Union

__all__ = [
    "TraceEvent",
    "TraceParseError",
    "FIELDS",
    "check_event",
    "Sink",
    "NullSink",
    "RingBufferSink",
    "JSONLSink",
    "TraceBus",
    "read_jsonl",
    "iter_jsonl",
]

#: A trace event is a flat dict: ``{"kind": str, "t": float|None, ...}``.
TraceEvent = Dict[str, object]


class Sink:
    """Sink protocol: anything with ``write(event)`` (and optionally
    ``close()``) can be attached to a :class:`TraceBus`."""

    #: The exact kinds this sink takes (read on attach); None = all.
    kinds: Optional[FrozenSet[str]] = None

    def write(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass

    def attached(self, bus: "TraceBus") -> None:
        """Called by *bus* once the sink is attached to it."""

    def detached(self, bus: "TraceBus") -> None:
        """Called by *bus* once the sink is detached from it."""


class NullSink(Sink):
    """Accepts and discards every event (keeps the bus active)."""

    def write(self, event: TraceEvent) -> None:
        pass


class RingBufferSink(Sink):
    """Keep the last *capacity* events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._buf: deque = deque(maxlen=capacity)

    def write(self, event: TraceEvent) -> None:
        self._buf.append(event)

    def __len__(self) -> int:
        return len(self._buf)

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Captured events, oldest first; *kind* filters by exact kind
        or, with a trailing ``.``, by prefix (``"flow."``)."""
        evs = list(self._buf)
        if kind is None:
            return evs
        if kind.endswith("."):
            return [e for e in evs if str(e.get("kind", "")).startswith(kind)]
        return [e for e in evs if e.get("kind") == kind]

    def clear(self) -> None:
        self._buf.clear()


class JSONLSink(Sink):
    """Append events to a JSONL file (one compact, key-sorted JSON
    object per line — byte-identical across identically seeded runs)."""

    def __init__(self, path_or_file: Union[str, "IO[str]"]) -> None:
        if hasattr(path_or_file, "write"):
            self._fh: IO[str] = path_or_file  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[str] = getattr(path_or_file, "name", None)
        else:
            self.path = str(path_or_file)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._owns = True
        self.events_written = 0

    def write(self, event: TraceEvent) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, default=repr,
                                  separators=(",", ":")) + "\n")
        self.events_written += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceParseError(ValueError):
    """A JSONL trace line that is not a JSON object (corrupt or
    truncated) or whose event fails :func:`check_event`.  Carries the
    1-based line number so CLI surfaces can point at the offending line
    without a traceback."""

    def __init__(self, source: str, line_no: int, reason: str) -> None:
        self.source = source
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{source}: line {line_no}: {reason}")


#: Every kind the pinned runs emit, with the event fields the offline
#: readers and the invariant checkers read and their types: kind ->
#: field -> type; ``"*"`` applies to every kind, and ``{}`` declares a
#: kind whose only read fields are those.  A field may be absent or
#: null; when present it must have its declared type.  Only parsed
#: traces are checked (:func:`iter_jsonl`) — never the emit path.
FIELDS: Dict[str, Dict[str, str]] = {
    "*": {"kind": "str", "t": "number", "nbytes": "number",
          "total_bytes": "number", "duration": "number"},
    "engine.event": {},
    "engine.clock": {},
    "engine.tick": {},
    "span.begin": {"span_id": "id", "parent_id": "id"},
    "span.end": {"span_id": "id"},
    "flow.start": {"span_id": "id"},
    "flow.finish": {"span_id": "id"},
    "flow.cancel": {"span_id": "id"},
    "flow.interrupt": {"span_id": "id"},
    "version.advance": {"version": "int", "full_power": "bool"},
    "dirty.insert": {"oid": "id"},
    "dirty.remove": {"oid": "id"},
    "migration.plan": {},
    "migration.move": {"oid": "id", "to": "ids"},
    "migration.full": {},
    "migration.addition": {"rank": "id"},
    "reintegration.step": {},
    "recovery.plan": {},
    "recovery.rereplicate": {"rank": "id"},
    "server.state": {"rank": "id"},
    "server.fail": {"rank": "id", "lost_bytes": "number"},
    "server.repair": {},
    "power.resize": {"powered_on": "ids", "powered_off": "ids"},
    "bandwidth.solve": {"max_util": "number"},
    "fault.inject": {},
    "read.degraded": {"oid": "id"},
    "read.unavailable": {"oid": "id"},
    "serve.enqueue": {},
    "serve.reject": {},
    "serve.queue": {"depth": "int", "bound": "int"},
    "serve.complete": {"latency": "number"},
    "serve.failover": {},
    "transfer.start": {},
    "transfer.ack": {"oids": "ids"},
    "transfer.retry": {},
    "chaos.audit": {"lost": "int", "under_replicated": "int"},
    "kv.view.propose": {"epoch": "int"},
    "kv.view.commit": {"epoch": "int"},
    "kv.node.crash": {},
    "kv.node.repair": {},
    "kv.write.ack": {"key": "str", "client": "str", "vv": "vv"},
    "kv.read": {"key": "str", "client": "str", "vv": "vv",
                "degraded": "bool"},
    "kv.repair": {},
    "kv.audit": {"lost_acked": "int", "under_replicated": "int"},
}


def _is_number(v: object) -> bool:
    # Finite and representable as a float; bool is not a number here.
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _is_id(v: object) -> bool:
    return type(v) in (int, str)


_TYPES = {
    "str": ("a string", lambda v: type(v) is str),
    "int": ("an integer", lambda v: type(v) is int),
    "bool": ("a boolean", lambda v: type(v) is bool),
    "number": ("a finite number", _is_number),
    "id": ("an int or string id", _is_id),
    "ids": ("a list of ids",
            lambda v: type(v) is list and all(map(_is_id, v))),
    "vv": ("a version vector (string -> integer)",
           lambda v: type(v) is dict and all(
               type(node) is str and type(count) is int
               for node, count in v.items())),
}
_CHECKS = {kind: tuple((field, *_TYPES[type_])
                       for field, type_ in {**FIELDS["*"], **fields}.items())
           for kind, fields in FIELDS.items()}


def check_event(event: TraceEvent) -> None:
    """Raise :class:`ValueError` naming the first field of *event*
    whose value does not have its :data:`FIELDS` type."""
    kind = event.get("kind")
    checks = _CHECKS["*"]
    if type(kind) is str:
        checks = _CHECKS.get(kind, checks)
    for field, expected, ok in checks:
        v = event.get(field)
        if v is not None and not ok(v):
            raise ValueError(f"field {field!r} of {kind!r} must be "
                             f"{expected}, got {v!r}")


def iter_jsonl(path_or_file: Union[str, "IO[str]"]):
    """Yield ``(line_no, event)`` pairs from a JSONL trace (1-based
    line numbers, blank lines skipped).  Raises
    :class:`TraceParseError` on a corrupt or truncated line, or on an
    event failing :func:`check_event`."""
    if hasattr(path_or_file, "read"):
        lines: Iterable[str] = path_or_file  # type: ignore[assignment]
        source = getattr(path_or_file, "name", "<stream>")
        yield from _parse_lines(lines, source)
    else:
        with open(str(path_or_file), encoding="utf-8") as fh:
            yield from _parse_lines(fh, str(path_or_file))


def _parse_lines(lines: Iterable[str], source: str):
    for line_no, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        try:
            event = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise TraceParseError(source, line_no,
                                  f"invalid JSON ({exc.msg})") from exc
        if not isinstance(event, dict):
            raise TraceParseError(
                source, line_no,
                f"expected a JSON object, got {type(event).__name__}")
        try:
            check_event(event)
        except ValueError as exc:
            raise TraceParseError(source, line_no, str(exc)) from None
        yield line_no, event


def read_jsonl(path_or_file: Union[str, "IO[str]"]) -> List[TraceEvent]:
    """Parse a JSONL trace back into its event dicts (blank lines are
    skipped) — the inverse of :class:`JSONLSink`.  Raises
    :class:`TraceParseError` on corrupt lines."""
    return [event for _line_no, event in iter_jsonl(path_or_file)]


class TraceBus:
    """Process-local event fan-out.

    Examples
    --------
    >>> bus = TraceBus()
    >>> sink = RingBufferSink()
    >>> _ = bus.attach(sink)
    >>> bus.emit("flow.start", t=1.0, name="client")
    >>> sink.events("flow.start")[0]["name"]
    'client'
    """

    __slots__ = ("sinks", "clock", "ordinal", "active", "every", "takers")

    def __init__(self) -> None:
        self.sinks: List[Sink] = []
        #: Current simulation time, published by whichever driver owns
        #: the clock; used when emitters pass ``t=None``.
        self.clock: float = 0.0
        #: Events emitted while any sink was attached, taken or not:
        #: inside ``write``, the 1-based position of the event.
        self.ordinal = 0
        self._subscribe()

    # ------------------------------------------------------------------
    def attach(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        self._subscribe()
        if isinstance(sink, Sink):
            sink.attached(self)
        return sink

    def detach(self, sink: Sink) -> None:
        self.sinks.remove(sink)
        self._subscribe()
        if isinstance(sink, Sink):
            sink.detached(self)

    def _subscribe(self) -> None:
        """Recompute who takes each declared kind, and who any other."""
        subs = [(s, getattr(s, "kinds", None)) for s in self.sinks]
        #: True when at least one sink is attached.  Producers guard
        #: expensive field construction on this.
        self.active = bool(self.sinks)
        #: The sinks that take a kind no sink declared, and the takers
        #: of each declared kind: ``takers.get(kind, every)``.
        self.every = tuple(s for s, kinds in subs if kinds is None)
        self.takers = {
            kind: tuple(s for s, ks in subs if ks is None or kind in ks)
            for _s, kinds in subs for kind in kinds or ()}

    def capture(self, capacity: int = 4096) -> "_Capture":
        """``with bus.capture() as sink:`` — scoped ring-buffer capture."""
        return _Capture(self, RingBufferSink(capacity))

    # ------------------------------------------------------------------
    def takes(self, kind: str) -> bool:
        """True when some sink takes *kind*; otherwise the event is
        counted as :meth:`emit` would count it, and a hot producer
        skips the call: ``if bus.takes(kind): bus.emit(kind, ...)``."""
        if self.takers.get(kind, self.every):
            return True
        if self.active:
            self.ordinal += 1
        return False

    def emit(self, kind: str, t: Optional[float] = None,
             **fields: object) -> None:
        """Publish one event to the sinks that take its kind; if none
        does it is only counted, before the event dict is built."""
        if not self.active:
            return
        self.ordinal += 1
        takers = self.takers.get(kind, self.every)
        if not takers:
            return
        event: TraceEvent = {"kind": kind,
                             "t": self.clock if t is None else t}
        if fields:
            event.update(fields)
        for sink in takers:
            sink.write(event)


class _Capture:
    """Context manager attaching a ring buffer for its scope."""

    def __init__(self, bus: TraceBus, sink: RingBufferSink) -> None:
        self._bus = bus
        self.sink = sink

    def __enter__(self) -> RingBufferSink:
        self._bus.attach(self.sink)
        return self.sink

    def __exit__(self, *exc) -> None:
        self._bus.detach(self.sink)
