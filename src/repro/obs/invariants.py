"""Online invariant checkers over the trace-event stream.

The simulator's correctness rests on a handful of properties the paper
states or assumes — versions only grow, migration never targets a
powered-off server, the dirty table drives selective re-integration,
the fair-share solver never oversubscribes a disk.  A
:class:`Checker` consumes the event stream one event at a time and
records :class:`Violation`\\ s; :class:`InvariantSuite` fans one stream
out to many checkers.

Checkers run in two modes, sharing the same code path:

* **offline** — over a JSONL trace file
  (:func:`repro.obs.report.check_trace`, the ``repro check`` command);
* **live** — attached to the bus as a :class:`CheckerSink` while an
  experiment runs (the CLI's ``--check`` flag), so CI fails the moment
  a regression emits an impossible event.

Every checker is stateless across suites (construct fresh per run) and
tolerant of partial traces: an invariant is only evaluated once the
events required to ground it have been seen, so a trace that never
mentions server power states trivially passes the power checkers.

The stock suite (:func:`default_checkers`):

====================== ================================================
checker                invariant
====================== ================================================
``version-monotonic``  ``version.advance`` epochs strictly increase
``powered-move``       no ``migration.move`` targets a powered-off rank
``dirty-discipline``   ``dirty.insert`` only below full power, and
                       selective re-integration only moves objects the
                       dirty table has seen
``bandwidth-cap``      no server's allocated disk rate exceeds its
                       capacity in any tick
``flow-accounting``    every started flow finishes, is cancelled, or
                       is interrupted by a fault
``machine-hours``      ``power.sample`` active counts agree with the
                       ``server.state`` transitions between them
``no-lost-object``     no object ever loses its last replica
``replication-restored-after-repair``
                       the final ``chaos.audit`` of the run reports
                       full replication (faults were repaired and
                       recovery converged)
``dirty-entry-cleared-only-on-ack``
                       once transfers are in play, a dirty entry is
                       only removed after a ``transfer.ack`` covering
                       its oid (an interrupted transfer must leave
                       entries intact)
``view-epoch-monotonic``
                       ``kv.view.commit`` epochs strictly increase and
                       each commit installs the latest proposal
``kv-no-acked-write-lost``
                       no ``kv.audit`` reports a lost acked write, and
                       no quorum read returns data older than the
                       newest acked write of its key
``kv-read-your-writes``
                       a client's read of a key always reflects that
                       client's own last acked write of it
``kv-monotonic-reads``
                       a client's successive reads of a key never go
                       backwards in version-vector order
``kv-replication-factor-restored``
                       the final ``kv.audit`` reports zero
                       under-replicated keys (anti-entropy converged)
====================== ================================================

The chaos trio is grounded by fault-injection events (``chaos.audit``
/ ``object.lost`` / ``transfer.*``) and the kv quintet by the
replicated store's ``kv.*`` events
(:mod:`repro.kvstore.replicated`), so traces without those layers
pass them vacuously.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.obs.runtime import OBS
from repro.obs.trace import Sink, TraceBus, TraceEvent

__all__ = [
    "SWEEP_BOUNDARY_KIND",
    "Violation",
    "Checker",
    "InvariantSuite",
    "CheckerSink",
    "CheckedRun",
    "checked_run",
    "render_invariants",
    "default_checkers",
    "check_events",
    "VersionMonotonicChecker",
    "PoweredMoveChecker",
    "DirtyDisciplineChecker",
    "BandwidthCapChecker",
    "ServeQueueBoundedChecker",
    "FlowAccountingChecker",
    "MachineHourChecker",
    "NoLostObjectChecker",
    "ReplicationRestoredChecker",
    "DirtyAckChecker",
    "ViewEpochMonotonicChecker",
    "KVNoAckedWriteLostChecker",
    "KVReadYourWritesChecker",
    "KVMonotonicReadsChecker",
    "KVReplicationRestoredChecker",
]

#: Event kind separating independent runs inside one merged trace
#: (the sweep runner's ``merged.jsonl``).  The suite finishes the
#: active checkers and restarts fresh ones at each boundary, so
#: per-run invariants (version monotonicity, flow accounting, the
#: final-audit check) never leak across tasks.
SWEEP_BOUNDARY_KIND = "sweep.task"


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the offending event."""

    checker: str
    message: str
    #: Position of the event in its stream: the JSONL line number when
    #: checking a file, the 1-based emit ordinal when checking live.
    index: int
    t: Optional[float]
    event: TraceEvent

    def describe(self) -> str:
        t = "-" if self.t is None else f"{self.t:g}"
        return (f"line {self.index}  t={t}  [{self.checker}] "
                f"{self.message}")


class Checker:
    """One online invariant.

    Subclasses set :attr:`name` and :attr:`kinds`, override
    :meth:`observe` (called per event of a declared kind) and
    optionally :meth:`finish` (called once, after the last event, for
    whole-trace invariants like flow accounting)."""

    name = "checker"
    #: The exact event kinds ``observe`` reads: it is handed no other.
    kinds: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def observe(self, event: TraceEvent, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    # ------------------------------------------------------------------
    def fail(self, event: TraceEvent, index: int, message: str) -> None:
        t = event.get("t")
        self.violations.append(Violation(
            checker=self.name, message=message, index=index,
            t=t if isinstance(t, (int, float)) else None, event=event))

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# concrete checkers
# ----------------------------------------------------------------------
class VersionMonotonicChecker(Checker):
    """Membership versions advance strictly monotonically
    (§III-E-1: every resize creates the *next* epoch)."""

    name = "version-monotonic"
    kinds = ("version.advance",)

    def __init__(self) -> None:
        super().__init__()
        self._last: Optional[int] = None

    def observe(self, event: TraceEvent, index: int) -> None:
        version = event.get("version")
        if not isinstance(version, int):
            self.fail(event, index,
                      f"version.advance without integer version: "
                      f"{version!r}")
            return
        if self._last is not None and version <= self._last:
            self.fail(event, index,
                      f"version went {self._last} -> {version} "
                      f"(must strictly increase)")
        self._last = version


class PoweredMoveChecker(Checker):
    """No migration ever targets a powered-off server — powered-off
    replicas are parked, not written (§III-B: secondaries power off
    *because* nothing needs to reach them)."""

    name = "powered-move"
    kinds = ("server.state", "server.fail", "migration.move")

    def __init__(self) -> None:
        super().__init__()
        self._off: Set[int] = set()

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "server.state":
            rank = event.get("rank")
            if event.get("state") == "off":
                self._off.add(rank)          # type: ignore[arg-type]
            else:
                self._off.discard(rank)      # type: ignore[arg-type]
        elif kind == "server.fail":
            self._off.add(event.get("rank"))  # type: ignore[arg-type]
        elif kind == "migration.move":
            targets = event.get("to") or ()
            for rank in targets:             # type: ignore[union-attr]
                if rank in self._off:
                    self.fail(event, index,
                              f"migration.move targets powered-off "
                              f"rank {rank}")


class DirtyDisciplineChecker(Checker):
    """The dirty table's contract (§III-E-2): entries are only created
    below full power, and selective re-integration only ever moves
    objects the dirty table has recorded."""

    name = "dirty-discipline"
    kinds = ("version.advance", "dirty.insert", "migration.move")

    def __init__(self) -> None:
        super().__init__()
        self._full_power: Optional[bool] = None   # unknown until seen
        self._dirty_oids: Set[int] = set()

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "version.advance":
            fp = event.get("full_power")
            if isinstance(fp, bool):
                self._full_power = fp
        elif kind == "dirty.insert":
            if self._full_power is True:
                self.fail(event, index,
                          "dirty.insert while the cluster is at full "
                          "power (writes at full power are clean)")
            self._dirty_oids.add(event.get("oid"))  # type: ignore[arg-type]
        elif kind == "migration.move":
            oid = event.get("oid")
            if oid not in self._dirty_oids:
                self.fail(event, index,
                          f"selective re-integration moved object "
                          f"{oid} absent from the dirty table")


class BandwidthCapChecker(Checker):
    """The fair-share allocation never oversubscribes a disk: the
    per-tick ``bandwidth.solve`` event reports the most-loaded
    server's utilisation, which must stay ≤ 1 (small float tolerance
    for the progressive-filling arithmetic)."""

    name = "bandwidth-cap"
    kinds = ("bandwidth.solve",)
    TOLERANCE = 1e-6

    def observe(self, event: TraceEvent, index: int) -> None:
        util = event.get("max_util")
        if not isinstance(util, (int, float)):
            return              # pre-span-era trace: field absent
        if util > 1.0 + self.TOLERANCE:
            self.fail(event, index,
                      f"server {event.get('max_util_rank')} allocated "
                      f"{util:.6f}x its disk capacity in one tick")


class ServeQueueBoundedChecker(Checker):
    """Per-server request queues respect the flow controller's
    declared bound: every ``serve.queue`` depth sample must be ≤ the
    ``bound`` it was sampled against.  An unthrottled controller
    declares a bound it never enforces, which is exactly what this
    checker flushes out under overload — and why ``repro serve`` with
    it goes red while the adaptive throttle stays green.  Vacuous on
    traces with no serving layer."""

    name = "serve-queue-bounded"
    kinds = ("serve.queue",)

    def observe(self, event: TraceEvent, index: int) -> None:
        depth = event.get("depth")
        bound = event.get("bound")
        if not isinstance(depth, int) or not isinstance(bound, int):
            return
        if depth > bound:
            self.fail(event, index,
                      f"server {event.get('server')} queue depth {depth} "
                      f"exceeds declared bound {bound}")


class FlowAccountingChecker(Checker):
    """Every ``flow.start`` is matched by a ``flow.finish``, a
    ``flow.cancel``, or a fault preemption's ``flow.interrupt`` — no
    flow silently evaporates (lost bytes would be invisible in the
    throughput figures)."""

    name = "flow-accounting"
    kinds = ("flow.start", "flow.finish", "flow.cancel", "flow.interrupt")

    def __init__(self) -> None:
        super().__init__()
        #: span_id -> (index, event) of the still-open flow.
        self._open: Dict[object, Tuple[int, TraceEvent]] = {}

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "flow.start":
            key = event.get("span_id", ("anon", len(self._open), index))
            self._open[key] = (index, event)
        elif kind in ("flow.finish", "flow.cancel", "flow.interrupt"):
            key = event.get("span_id")
            if key is not None:
                if key in self._open:
                    del self._open[key]
                else:
                    self.fail(event, index,
                              f"{kind} for a flow that never started "
                              f"(span_id={key!r})")
                return
            # Pre-span trace: retire the oldest open flow with a
            # matching name.
            name = event.get("name")
            for k, (_i, ev) in self._open.items():
                if ev.get("name") == name:
                    del self._open[k]
                    return
            self.fail(event, index,
                      f"{kind} for flow {name!r} that never started")

    def finish(self) -> None:
        for index, event in self._open.values():
            self.fail(event, index,
                      f"flow {event.get('name')!r} "
                      f"(span_id={event.get('span_id')!r}) started but "
                      f"never finished, was cancelled, or was "
                      f"interrupted")


class MachineHourChecker(Checker):
    """Machine-hour samples agree with power transitions: between two
    consecutive ``power.sample`` events, the change in the sampled
    active count must equal the net ``server.state`` on/off delta.
    Traces without ``server.state`` events (pure policy timelines)
    are vacuously consistent."""

    name = "machine-hours"
    kinds = ("server.state", "server.fail", "power.sample")

    def __init__(self) -> None:
        super().__init__()
        self._last_sample: Optional[int] = None
        self._delta = 0
        self._state_seen_since_sample = False

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "server.state":
            self._delta += 1 if event.get("state") == "on" else -1
            self._state_seen_since_sample = True
        elif kind == "server.fail":
            self._delta -= 1
            self._state_seen_since_sample = True
        elif kind == "power.sample":
            active = event.get("active")
            if not isinstance(active, int):
                return
            if (self._last_sample is not None
                    and self._state_seen_since_sample):
                expected = self._last_sample + self._delta
                if active != expected:
                    self.fail(event, index,
                              f"power.sample active={active} but "
                              f"server.state transitions imply "
                              f"{expected} "
                              f"({self._last_sample}{self._delta:+d})")
            self._last_sample = active
            self._delta = 0
            self._state_seen_since_sample = False


class NoLostObjectChecker(Checker):
    """No object ever loses its last replica: recovery (or the write
    path) must always find a surviving copy to re-replicate from.
    Trips on an explicit ``object.lost`` event or on any
    ``chaos.audit`` reporting ``lost > 0``; traces without fault
    injection never carry either and pass vacuously."""

    name = "no-lost-object"
    kinds = ("object.lost", "chaos.audit")

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "object.lost":
            self.fail(event, index,
                      f"object {event.get('oid')} lost its last replica "
                      f"(crash of rank {event.get('rank')})")
        elif kind == "chaos.audit":
            lost = event.get("lost")
            if isinstance(lost, int) and lost > 0:
                self.fail(event, index,
                          f"audit found {lost} object(s) with zero "
                          f"replicas")


class ReplicationRestoredChecker(Checker):
    """After the fault plan's repair windows close, replication must
    converge: the *final* ``chaos.audit`` of the trace has to report
    zero lost and zero under-replicated objects.  Mid-run audits may
    legitimately show repair debt (a crash whose recovery transfer is
    still flowing); only failing to ever recover is a violation.
    Traces without audits pass vacuously."""

    name = "replication-restored-after-repair"
    kinds = ("chaos.audit",)

    def __init__(self) -> None:
        super().__init__()
        self._last: Optional[Tuple[int, TraceEvent]] = None

    def observe(self, event: TraceEvent, index: int) -> None:
        self._last = (index, event)

    def finish(self) -> None:
        if self._last is None:
            return
        index, event = self._last
        under = event.get("under_replicated")
        lost = event.get("lost")
        problems = []
        if isinstance(lost, int) and lost > 0:
            problems.append(f"{lost} lost")
        if isinstance(under, int) and under > 0:
            problems.append(f"{under} under-replicated")
        if problems:
            self.fail(event, index,
                      f"final audit still shows {', '.join(problems)} "
                      f"object(s): replication was not restored after "
                      f"repair")


class DirtyAckChecker(Checker):
    """Crash-consistency of the dirty table: once acknowledged
    transfers are in play (a ``transfer.start`` has been seen), a
    ``dirty.remove`` is legal only for an oid some ``transfer.ack``
    has covered — an interrupted transfer must leave its entries
    intact for the retry.  Traces predating the transfer layer (no
    ``transfer.start``) pass vacuously."""

    name = "dirty-entry-cleared-only-on-ack"
    kinds = ("transfer.start", "transfer.ack", "dirty.remove")

    def __init__(self) -> None:
        super().__init__()
        self._grounded = False
        self._acked: Set[int] = set()

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "transfer.start":
            self._grounded = True
        elif kind == "transfer.ack":
            for oid in event.get("oids") or ():
                self._acked.add(oid)
        elif kind == "dirty.remove" and self._grounded:
            oid = event.get("oid")
            if oid not in self._acked:
                self.fail(event, index,
                          f"dirty entry for object {oid} removed "
                          f"without an acknowledged transfer covering "
                          f"it")


# ----------------------------------------------------------------------
# replicated-KV checkers (kv.* events from repro.kvstore.replicated)
# ----------------------------------------------------------------------
def _vv_of(event: TraceEvent) -> Optional[Dict[str, int]]:
    """The event's version vector, or None when absent/malformed."""
    vv = event.get("vv")
    if isinstance(vv, dict) and all(
            isinstance(k, str) and isinstance(v, int)
            for k, v in vv.items()):
        return vv
    return None


def _vv_dominates(a: Dict[str, int], b: Dict[str, int]) -> bool:
    """a >= b componentwise: *a* reflects every write *b* does."""
    return all(a.get(node, 0) >= count for node, count in b.items())


def _vv_merge(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    out = dict(a)
    for node, count in b.items():
        if count > out.get(node, 0):
            out[node] = count
    return out


class ViewEpochMonotonicChecker(Checker):
    """Membership views advance through explicit two-step changes:
    ``kv.view.commit`` epochs strictly increase, and every commit
    installs the epoch of the latest ``kv.view.propose`` (no commit
    out of thin air, no stale proposal resurrected).  Traces without
    view events pass vacuously."""

    name = "view-epoch-monotonic"
    kinds = ("kv.view.propose", "kv.view.commit")

    def __init__(self) -> None:
        super().__init__()
        self._last_commit: Optional[int] = None
        self._proposed: Optional[int] = None

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "kv.view.propose":
            epoch = event.get("epoch")
            if isinstance(epoch, int):
                self._proposed = epoch
        elif kind == "kv.view.commit":
            epoch = event.get("epoch")
            if not isinstance(epoch, int):
                self.fail(event, index,
                          f"kv.view.commit without integer epoch: "
                          f"{event.get('epoch')!r}")
                return
            if self._proposed is None:
                self.fail(event, index,
                          f"view epoch {epoch} committed without any "
                          f"proposal")
            elif epoch != self._proposed:
                self.fail(event, index,
                          f"committed epoch {epoch} but the latest "
                          f"proposal was epoch {self._proposed}")
            if self._last_commit is not None and epoch <= self._last_commit:
                self.fail(event, index,
                          f"view epoch went {self._last_commit} -> "
                          f"{epoch} (must strictly increase)")
            self._last_commit = epoch
            self._proposed = None


class KVNoAckedWriteLostChecker(Checker):
    """An acknowledged write is durable: no ``kv.audit`` may report
    ``lost_acked > 0``, and no non-degraded ``kv.read`` may return a
    vector strictly dominated by the newest acked write of its key
    (a quorum read older than an acked write means the write quorum
    and read quorum failed to intersect).  Degraded reads are flagged
    honest-but-weaker and exempt.  Traces without ``kv.*`` events
    pass vacuously."""

    name = "kv-no-acked-write-lost"
    kinds = ("kv.write.ack", "kv.read", "kv.audit")

    def __init__(self) -> None:
        super().__init__()
        self._acked: Dict[str, Dict[str, int]] = {}

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        if kind == "kv.write.ack":
            key, vv = event.get("key"), _vv_of(event)
            if isinstance(key, str) and vv is not None:
                cur = self._acked.get(key)
                self._acked[key] = _vv_merge(cur, vv) if cur else vv
        elif kind == "kv.read":
            if event.get("degraded"):
                return
            key, vv = event.get("key"), _vv_of(event)
            if not isinstance(key, str) or vv is None:
                return
            newest = self._acked.get(key)
            if newest is not None and not _vv_dominates(vv, newest):
                self.fail(event, index,
                          f"quorum read of {key!r} returned {vv} older "
                          f"than the newest acked write {newest}")
        elif kind == "kv.audit":
            lost = event.get("lost_acked")
            if isinstance(lost, int) and lost > 0:
                self.fail(event, index,
                          f"audit {event.get('label')!r} found {lost} "
                          f"acked write(s) on no surviving replica")


class KVReadYourWritesChecker(Checker):
    """Session guarantee #1: a client's read of a key must reflect
    that client's own last acked write of it — the read's vector
    dominates the write's.  Applies per ``(client, key)``; anonymous
    (client-less) operations carry no session and are exempt, as are
    flagged degraded reads.  Traces without ``kv.*`` events pass
    vacuously."""

    name = "kv-read-your-writes"
    kinds = ("kv.write.ack", "kv.read")

    def __init__(self) -> None:
        super().__init__()
        self._written: Dict[Tuple[str, str], Dict[str, int]] = {}

    def observe(self, event: TraceEvent, index: int) -> None:
        kind = event.get("kind")
        client, key = event.get("client"), event.get("key")
        if not isinstance(client, str) or not isinstance(key, str):
            return
        vv = _vv_of(event)
        if vv is None:
            return
        if kind == "kv.write.ack":
            slot = (client, key)
            cur = self._written.get(slot)
            self._written[slot] = _vv_merge(cur, vv) if cur else vv
        elif kind == "kv.read" and not event.get("degraded"):
            floor = self._written.get((client, key))
            if floor is not None and not _vv_dominates(vv, floor):
                self.fail(event, index,
                          f"client {client!r} read {key!r} at {vv}, "
                          f"older than its own acked write {floor}")


class KVMonotonicReadsChecker(Checker):
    """Session guarantee #2: a client's successive reads of a key
    never move backwards — each read's vector dominates the previous
    read's.  Degraded reads still advance the floor (the client *saw*
    that state) but are not themselves judged.  Traces without
    ``kv.*`` events pass vacuously."""

    name = "kv-monotonic-reads"
    kinds = ("kv.read",)

    def __init__(self) -> None:
        super().__init__()
        self._seen: Dict[Tuple[str, str], Dict[str, int]] = {}

    def observe(self, event: TraceEvent, index: int) -> None:
        client, key = event.get("client"), event.get("key")
        if not isinstance(client, str) or not isinstance(key, str):
            return
        vv = _vv_of(event)
        if vv is None:
            return
        slot = (client, key)
        prev = self._seen.get(slot)
        if (prev is not None and not event.get("degraded")
                and not _vv_dominates(vv, prev)):
            self.fail(event, index,
                      f"client {client!r} re-read {key!r} at {vv} "
                      f"after having seen {prev} (reads went "
                      f"backwards)")
        self._seen[slot] = _vv_merge(prev, vv) if prev else vv


class KVReplicationRestoredChecker(Checker):
    """After repair windows close, anti-entropy must converge: the
    *final* ``kv.audit`` of the trace has to report zero
    under-replicated keys.  Mid-run audits may legitimately show
    repair debt (a crash whose re-replication has not run yet); only
    failing to ever converge is a violation.  Traces without
    ``kv.audit`` events pass vacuously."""

    name = "kv-replication-factor-restored"
    kinds = ("kv.audit",)

    def __init__(self) -> None:
        super().__init__()
        self._last: Optional[Tuple[int, TraceEvent]] = None

    def observe(self, event: TraceEvent, index: int) -> None:
        self._last = (index, event)

    def finish(self) -> None:
        if self._last is None:
            return
        index, event = self._last
        under = event.get("under_replicated")
        if isinstance(under, int) and under > 0:
            self.fail(event, index,
                      f"final kv.audit ({event.get('label')!r}) still "
                      f"shows {under} under-replicated key(s): the "
                      f"replication factor was not restored")


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def default_checkers() -> List[Checker]:
    """A fresh instance of every stock checker."""
    return [
        VersionMonotonicChecker(),
        PoweredMoveChecker(),
        DirtyDisciplineChecker(),
        BandwidthCapChecker(),
        ServeQueueBoundedChecker(),
        FlowAccountingChecker(),
        MachineHourChecker(),
        NoLostObjectChecker(),
        ReplicationRestoredChecker(),
        DirtyAckChecker(),
        ViewEpochMonotonicChecker(),
        KVNoAckedWriteLostChecker(),
        KVReadYourWritesChecker(),
        KVMonotonicReadsChecker(),
        KVReplicationRestoredChecker(),
    ]


class InvariantSuite:
    """Route one event stream to the checkers that declared its kind
    (:attr:`Checker.kinds`), in checker order.

    A :data:`SWEEP_BOUNDARY_KIND` event marks the start of a new
    independent run inside the same stream (a merged sweep trace):
    the suite runs the active checkers' end-of-stream checks, banks
    their violations, and restarts with fresh checker instances — so
    checkers must be constructible with no arguments.

    Examples
    --------
    >>> suite = InvariantSuite()
    >>> suite.observe({"kind": "version.advance", "t": 0.0,
    ...                "version": 2, "active": 6, "full_power": False}, 1)
    >>> suite.observe({"kind": "version.advance", "t": 1.0,
    ...                "version": 2, "active": 8, "full_power": False}, 2)
    >>> [v.checker for v in suite.finish()]
    ['version-monotonic']
    """

    def __init__(self, checkers: Optional[List[Checker]] = None) -> None:
        self.checkers = (checkers if checkers is not None
                         else default_checkers())
        self._archived: List[Violation] = []
        self._finished = False
        self.events_seen = 0
        self._route()

    def _route(self) -> None:
        """Build the ``kind -> (bound observe, ...)`` table."""
        self._routes: Dict[str, list] = {}
        for checker in self.checkers:
            if not checker.kinds:
                raise ValueError(f"{type(checker).__name__} declares no "
                                 f"kinds: it would never observe an event")
            for kind in checker.kinds:
                self._routes.setdefault(kind, []).append(checker.observe)
        #: Every kind some checker of the suite reads.
        self.kinds = frozenset(self._routes)

    def observe(self, event: TraceEvent, index: int) -> None:
        self.events_seen += 1
        kind = event.get("kind")
        if kind == SWEEP_BOUNDARY_KIND:
            self._restart()
        elif isinstance(kind, str):     # a corrupt trace's need not hash
            for observe in self._routes.get(kind, ()):
                observe(event, index)

    def _restart(self) -> None:
        """Close out the current run's checkers and start fresh ones."""
        for checker in self.checkers:
            checker.finish()
            self._archived.extend(checker.violations)
        self.checkers = [type(checker)() for checker in self.checkers]
        self._route()

    def finish(self) -> List[Violation]:
        """Run end-of-stream checks (once) and return all violations,
        ordered by stream position."""
        if not self._finished:
            self._finished = True
            for checker in self.checkers:
                checker.finish()
        return self.violations

    @property
    def violations(self) -> List[Violation]:
        out: List[Violation] = list(self._archived)
        for checker in self.checkers:
            out.extend(checker.violations)
        out.sort(key=lambda v: v.index)
        return out

    @property
    def ok(self) -> bool:
        return not self._archived and all(c.ok for c in self.checkers)


def check_events(events: Iterable[TraceEvent],
                 checkers: Optional[List[Checker]] = None
                 ) -> List[Violation]:
    """Run a suite over an in-memory event sequence (1-based indices)
    and return the violations."""
    suite = InvariantSuite(checkers)
    for index, event in enumerate(events, start=1):
        suite.observe(event, index)
    return suite.finish()


class CheckerSink(Sink):
    """Bus sink that feeds a live run's events straight into an
    :class:`InvariantSuite` — the ``--check`` flag's engine.  It takes
    the kinds the suite reads, yet indices (1-based) and, from detach
    or :meth:`finish` on, ``suite.events_seen`` count every event the
    bus emitted while the sink was attached."""

    def __init__(self, suite: Optional[InvariantSuite] = None) -> None:
        self.suite = suite if suite is not None else InvariantSuite()
        self.kinds = self.suite.kinds | {SWEEP_BOUNDARY_KIND}
        self._bus: Optional[TraceBus] = None    # while attached

    def attached(self, bus: TraceBus) -> None:
        # _base: the bus ordinal of this sink's event 0.
        self._bus, self._base = bus, bus.ordinal - self.suite.events_seen

    def detached(self, bus: TraceBus) -> None:
        self.suite.events_seen = bus.ordinal - self._base
        self._bus = None

    def write(self, event: TraceEvent) -> None:
        self.suite.observe(event, self._bus.ordinal - self._base)

    def finish(self) -> List[Violation]:
        if self._bus is not None:
            self.suite.events_seen = self._bus.ordinal - self._base
        return self.suite.finish()


@dataclass
class CheckedRun:
    """What the live suite found over one :func:`checked_run` — the
    three fields every harness result carries.  Filled in when the run
    completes; all zero/empty when checking was off."""

    violations: List[str] = field(default_factory=list)
    checkers: int = 0
    events_seen: int = 0


@contextmanager
def checked_run(span_name: str, check: bool,
                **span_attrs: object) -> Iterator[CheckedRun]:
    """A harness's main loop under the stock suite and a run span.

    Attaches a :class:`CheckerSink` (when *check*), opens the
    *span_name* span, and on the way out ends the span ``completed``
    or ``failed``, detaches the sink and — after a completed run —
    fills the yielded :class:`CheckedRun` from the suite's
    end-of-stream verdict.
    """
    outcome = CheckedRun()
    sink: Optional[CheckerSink] = None
    if check:
        sink = CheckerSink()
        OBS.bus.attach(sink)
    span = OBS.spans.begin(span_name, **span_attrs)
    try:
        yield outcome
        span.end(status="completed")
    except BaseException:
        span.end(status="failed")
        raise
    finally:
        if sink is not None:
            OBS.bus.detach(sink)
    if sink is not None:
        outcome.violations = [v.describe() for v in sink.finish()]
        outcome.checkers = len(sink.suite.checkers)
        outcome.events_seen = sink.suite.events_seen


def render_invariants(result) -> List[str]:
    """The ``## invariants`` section of a harness report, from a
    result carrying ``violations`` / ``checkers`` / ``events_seen``."""
    lines = ["## invariants", ""]
    if not result.checkers:
        lines.append("checkers not attached (check=False).")
    elif result.violations:
        lines.append(f"{len(result.violations)} violation(s) across "
                     f"{result.checkers} checkers:")
        lines += [f"- {v}" for v in result.violations]
    else:
        lines.append(f"all {result.checkers} checkers hold over "
                     f"{result.events_seen} events.")
    return lines
