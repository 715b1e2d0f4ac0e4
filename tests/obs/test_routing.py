"""Declared interest: ``Checker.kinds`` routing in the suite and
``Sink.kinds`` subscription on the bus.

Three things are pinned here.  The *declarations* — every
``(checker, kind)`` pair is needed (a scenario's verdict changes when
the kind is dropped) and is really emitted somewhere in ``src/``.  The
*routing* — the routed suite reports what the broadcast oracle
(``_reference_suite``) reports, on generated streams and on real
traces.  The *bus accounting* — ordinals and ``events_seen`` count
skipped events, and no event dict is built for a kind nobody takes.
"""

import copy
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import OBS
from repro.obs import invariants as inv
from repro.obs import report
from repro.obs.invariants import (
    SWEEP_BOUNDARY_KIND,
    Checker,
    CheckerSink,
    InvariantSuite,
    check_events,
    default_checkers,
)
from repro.obs.trace import (
    JSONLSink,
    NullSink,
    RingBufferSink,
    Sink,
    TraceBus,
    check_event,
)
from tests.obs._reference_suite import (
    BroadcastSuite,
    broadcast_check,
    verdict,
)

REPO = Path(__file__).resolve().parents[2]
STOCK = [type(c) for c in default_checkers()]
DECLARED = {(cls, kind) for cls in STOCK for kind in cls.kinds}
ALL_KINDS = sorted({kind for _cls, kind in DECLARED})


def ev(kind, **fields):
    return {"kind": kind, "t": 0.0, **fields}


# ----------------------------------------------------------------------
# every declared (checker, kind) pair is needed
# ----------------------------------------------------------------------
#: ``(checker, events, violations it must report, kinds it needs)``:
#: dropping any of the *needed* kinds from the checker's ``kinds``
#: changes the number of violations.
_VV1, _VV2 = {"a": 1}, {"a": 2}
SCENARIOS = [
    (inv.VersionMonotonicChecker,
     [ev("version.advance", version=2), ev("version.advance", version=1)],
     1, ["version.advance"]),
    (inv.PoweredMoveChecker,
     [ev("server.state", rank=3, state="off"),
      ev("migration.move", oid=1, to=[3])],
     1, ["server.state", "migration.move"]),
    (inv.PoweredMoveChecker,
     [ev("server.fail", rank=3), ev("migration.move", oid=1, to=[3])],
     1, ["server.fail"]),
    (inv.DirtyDisciplineChecker,
     [ev("version.advance", version=2, full_power=True),
      ev("dirty.insert", oid=1)],
     1, ["version.advance"]),
    (inv.DirtyDisciplineChecker,
     [ev("dirty.insert", oid=1), ev("migration.move", oid=1)],
     0, ["dirty.insert"]),
    (inv.DirtyDisciplineChecker,
     [ev("migration.move", oid=5)], 1, ["migration.move"]),
    (inv.BandwidthCapChecker,
     [ev("bandwidth.solve", max_util=1.5, max_util_rank=2)],
     1, ["bandwidth.solve"]),
    (inv.ServeQueueBoundedChecker,
     [ev("serve.queue", server=1, depth=5, bound=3)], 1, ["serve.queue"]),
    (inv.FlowAccountingChecker,
     [ev("flow.start", name="c", span_id=1)], 1, ["flow.start"]),
    (inv.FlowAccountingChecker,
     [ev("flow.start", name="c", span_id=1),
      ev("flow.finish", name="c", span_id=1)], 0, ["flow.finish"]),
    (inv.FlowAccountingChecker,
     [ev("flow.start", name="c", span_id=1),
      ev("flow.cancel", name="c", span_id=1)], 0, ["flow.cancel"]),
    (inv.FlowAccountingChecker,
     [ev("flow.start", name="c", span_id=1),
      ev("flow.interrupt", name="c", span_id=1)], 0, ["flow.interrupt"]),
    (inv.VersionMonotonicChecker,
     [ev("version.advance", version=2), ev("version.advance", version=2)],
     1, ["version.advance"]),
    (inv.PoweredMoveChecker,
     [ev("server.fail", rank=3), ev("server.state", rank=3, state="on"),
      ev("migration.move", oid=1, to=[3])], 0, ["server.state"]),
    (inv.NoLostObjectChecker,
     [ev("object.lost", oid=1, rank=2)], 1, ["object.lost"]),
    (inv.NoLostObjectChecker,
     [ev("chaos.audit", lost=2, under_replicated=0)], 1, ["chaos.audit"]),
    (inv.ReplicationRestoredChecker,
     [ev("chaos.audit", lost=0, under_replicated=3)], 1, ["chaos.audit"]),
    (inv.DirtyAckChecker,
     [ev("transfer.start", key="j"), ev("dirty.remove", oid=1)],
     1, ["transfer.start", "dirty.remove"]),
    (inv.DirtyAckChecker,
     [ev("transfer.start", key="j"), ev("transfer.ack", oids=[1]),
      ev("dirty.remove", oid=1)], 0, ["transfer.ack"]),
    (inv.ViewEpochMonotonicChecker,
     [ev("kv.view.propose", epoch=1), ev("kv.view.commit", epoch=1)],
     0, ["kv.view.propose"]),
    (inv.ViewEpochMonotonicChecker,
     [ev("kv.view.commit", epoch=1)], 1, ["kv.view.commit"]),
    (inv.KVNoAckedWriteLostChecker,
     [ev("kv.write.ack", key="k", client="c", vv=_VV2),
      ev("kv.read", key="k", client="d", vv=_VV1)],
     1, ["kv.write.ack", "kv.read"]),
    (inv.KVNoAckedWriteLostChecker,
     [ev("kv.audit", label="end", lost_acked=1)], 1, ["kv.audit"]),
    (inv.KVReadYourWritesChecker,
     [ev("kv.write.ack", key="k", client="c", vv=_VV2),
      ev("kv.read", key="k", client="c", vv=_VV1)],
     1, ["kv.write.ack", "kv.read"]),
    (inv.KVMonotonicReadsChecker,
     [ev("kv.read", key="k", client="c", vv=_VV2),
      ev("kv.read", key="k", client="c", vv=_VV1)], 1, ["kv.read"]),
    (inv.KVReplicationRestoredChecker,
     [ev("kv.audit", label="end", under_replicated=2)], 1, ["kv.audit"]),
]
MUTANTS = [(cls, events, expected, kind)
           for cls, events, expected, needs in SCENARIOS for kind in needs]


def _id(param):
    return param.__name__ if isinstance(param, type) else None


class TestDeclarations:
    def test_twenty_eight_pairs_each_with_a_scenario(self):
        assert len(STOCK) == 14 and len(DECLARED) == 28
        assert {(cls, kind) for cls, _e, _n, kind in MUTANTS} == DECLARED

    @pytest.mark.parametrize("cls,events,expected,_needs", SCENARIOS,
                             ids=_id)
    def test_scenario_verdict(self, cls, events, expected, _needs):
        """Fails when a needed kind is missing from ``cls.kinds``."""
        violations = check_events(copy.deepcopy(events), [cls()])
        assert [v.checker for v in violations] == [cls.name] * expected

    @pytest.mark.parametrize("cls,events,expected,kind", MUTANTS, ids=_id)
    def test_dropping_the_kind_changes_the_verdict(self, cls, events,
                                                   expected, kind):
        """The scenario above really depends on *kind* being routed."""
        kinds = tuple(k for k in cls.kinds if k != kind)
        mutant = type(cls.__name__, (cls,), {"kinds": kinds})
        if not kinds:
            with pytest.raises(ValueError, match="declares no kinds"):
                InvariantSuite([mutant()])
            return
        violations = check_events(copy.deepcopy(events), [mutant()])
        assert len(violations) != expected

    @pytest.mark.parametrize("cls", STOCK, ids=_id)
    def test_undeclared_kinds_leave_the_checker_untouched(self, cls):
        checker = cls()
        before = copy.deepcopy(vars(checker))
        suite = InvariantSuite([checker])
        others = [k for k in ALL_KINDS if k not in cls.kinds]
        others += ["engine.event", "serve.enqueue", "nobody.reads", None, 7]
        for index, kind in enumerate(others, start=1):
            suite.observe({"kind": kind, "t": 1.0, "version": "x",
                           "rank": 1, "oid": 1, "key": "k", "client": "c",
                           "vv": {"a": 1}, "span_id": 1, "active": 3}, index)
        assert vars(checker) == before
        assert suite.events_seen == len(others)

    def test_every_declared_kind_is_emitted_in_src(self):
        """A typo'd kind would make its checker pass vacuously forever."""
        # ALL_KINDS has object.lost, which FIELDS lacks, so no golden
        # producer test covers it.
        emitted = set()
        for path in (REPO / "src" / "repro").rglob("*.py"):
            if path.name in ("invariants.py", "trace.py"):
                continue        # declarations and doctests, not producers
            emitted.update(re.findall(r'\bemit\(\s*"([a-z_.]+)"',
                                      path.read_text(encoding="utf-8")))
        assert set(ALL_KINDS) <= emitted, set(ALL_KINDS) - emitted

    def test_a_checker_without_kinds_is_refused(self):
        class Silent(Checker):
            name = "silent"

            def observe(self, event, index):
                pass

        with pytest.raises(ValueError, match="Silent declares no kinds"):
            InvariantSuite([Silent()])

    def test_suite_kinds_and_order(self):
        suite = InvariantSuite()
        assert suite.kinds == frozenset(ALL_KINDS)
        # Interested checkers are called in checker order.
        calls = []

        def spy(cls):
            def observe(self, event, index):
                calls.append(cls.name)
            return type(cls.__name__, (cls,), {"observe": observe})

        InvariantSuite([spy(c)() for c in STOCK]).observe(ev("kv.read"), 1)
        assert calls == ["kv-no-acked-write-lost", "kv-read-your-writes",
                         "kv-monotonic-reads"]

    def test_docs_table_matches_the_declarations(self):
        """docs/OBSERVABILITY.md's kind -> checkers table is
        :func:`kind_table` of ``default_checkers()``; on a mismatch
        paste the right-hand side between the two markers."""
        text = (REPO / "docs" / "OBSERVABILITY.md").read_text(
            encoding="utf-8")
        begin, end = "<!-- kind-table:begin -->", "<!-- kind-table:end -->"
        block = text[text.index(begin) + len(begin):text.index(end)]
        assert block.strip() == kind_table()


def kind_table() -> str:
    """The kind -> checkers table of docs/OBSERVABILITY.md."""
    lines = ["| event kind | read by |", "|---|---|"]
    for kind in ALL_KINDS:
        readers = ", ".join(f"`{cls.name}`" for cls in STOCK
                            if kind in cls.kinds)
        lines.append(f"| `{kind}` | {readers} |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# routed == broadcast
# ----------------------------------------------------------------------
_KINDS = st.one_of(
    st.sampled_from(ALL_KINDS),
    st.sampled_from(ALL_KINDS),          # weight the kinds somebody reads
    st.sampled_from(["engine.event", "serve.enqueue", "span.begin",
                     "nobody.reads", SWEEP_BOUNDARY_KIND]),
)
_SMALL = st.one_of(st.integers(-1, 4), st.none(), st.booleans(),
                   st.sampled_from(["on", "off", "k", "c", 1.5]))
_VV = st.one_of(
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 3)),
    st.sampled_from([None, "vv", {"a": "x"}, {1: 1}]))
_FIELDS = st.fixed_dictionaries({}, optional={
    "t": st.one_of(st.floats(0, 10), st.none(), st.just("late")),
    "version": _SMALL, "full_power": _SMALL, "rank": _SMALL,
    "state": _SMALL, "oid": _SMALL, "max_util": _SMALL, "depth": _SMALL,
    "bound": _SMALL, "span_id": _SMALL, "name": _SMALL, "active": _SMALL,
    "lost": _SMALL, "under_replicated": _SMALL, "lost_acked": _SMALL,
    "epoch": _SMALL, "key": _SMALL, "client": _SMALL, "degraded": _SMALL,
    "label": _SMALL, "vv": _VV,
    "to": st.one_of(st.none(), st.lists(st.integers(0, 4), max_size=3)),
    "oids": st.one_of(st.none(), st.lists(st.integers(0, 4), max_size=3)),
})


@st.composite
def _events(draw):
    """An event a checker can be handed: one ``check_event`` passes.
    Checkers trust the declared field types, so each field the
    declaration of the drawn kind refuses is dropped."""
    event = draw(_FIELDS)
    if draw(st.integers(0, 19)):        # 1 in 20 has no kind at all
        event["kind"] = draw(_KINDS)
    for field in sorted(event, key=lambda f: f != "kind"):
        try:
            check_event({"kind": event.get("kind"), field: event[field]})
        except ValueError:
            del event[field]
    check_event(event)
    return event


@st.composite
def _streams(draw):
    events = draw(st.lists(_events(), max_size=40))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(events),
                         max_size=len(events)))
    indices = [sum(gaps[:n + 1]) for n in range(len(events))]
    classes = draw(st.one_of(
        st.just(STOCK),
        st.lists(st.sampled_from(STOCK), min_size=1, max_size=8)))
    return events, indices, classes


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_streams())
    def test_routed_suite_equals_broadcast(self, stream):
        events, indices, classes = stream
        routed = InvariantSuite([cls() for cls in classes])
        for event, index in zip(copy.deepcopy(events), indices):
            routed.observe(event, index)
        routed.finish()
        oracle = broadcast_check(copy.deepcopy(events),
                                 [cls() for cls in classes], indices)
        assert verdict(routed) == verdict(oracle)

    @settings(max_examples=100, deadline=None)
    @given(_streams())
    def test_live_bus_equals_offline_broadcast(self, stream):
        """Through the bus: a checker-only sink sees its kinds only,
        yet indices and ``events_seen`` are those of the whole stream."""
        events, _indices, classes = stream
        events = [e for e in events if isinstance(e.get("kind"), str)]
        bus = TraceBus()
        sink = bus.attach(CheckerSink(InvariantSuite(
            [cls() for cls in classes])))
        for event in copy.deepcopy(events):
            fields = {k: v for k, v in event.items()
                      if k not in ("kind", "t")}
            bus.emit(event["kind"], t=event.get("t"), **fields)
        bus.detach(sink)
        sink.finish()
        for event in events:                # what emit makes of t=None
            if event.get("t") is None:
                event["t"] = 0.0
        oracle = broadcast_check(events, [cls() for cls in classes])
        assert verdict(sink.suite) == verdict(oracle)

    def test_oracle_is_a_broadcast(self):
        oracle = broadcast_check([ev("engine.event"), ev("kv.read")])
        assert oracle.observe_calls == 2 * len(STOCK)

    @pytest.mark.parametrize("argv", [
        ["three-phase", "--mode", "selective", "--scale", "0.05"],
        ["chaos", "--seed", "7", "--scale", "0.03", "--n", "10",
         "--off-count", "4"],
        ["kvchurn", "--seed", "7", "--duration", "60"],
        ["serve", "--seed", "7", "--duration", "6", "--resize-at", "2",
         "--resize-back-at", "4"],
    ], ids=lambda argv: argv[0])
    def test_repro_check_text_on_real_traces(self, argv, tmp_path, capsys,
                                             monkeypatch):
        """Live verdict == offline verdict == the oracle's, on a trace
        of each checked harness (``--check`` and ``--trace-out``
        together: one ordinal, so counts equal line counts)."""
        path = tmp_path / "run.jsonl"
        code = main(argv + ["--trace-out", str(path), "--check"])
        live = capsys.readouterr().err
        assert code == 0, live
        lines = sum(1 for _ in open(path, encoding="utf-8"))
        assert f"all invariants hold ({lines} events)" in live
        routed_text = report.render_check(str(path))
        assert f"{lines} events — all invariants hold" in routed_text[0]
        monkeypatch.setattr(report, "InvariantSuite", BroadcastSuite)
        assert report.render_check(str(path)) == routed_text

    def test_repro_check_text_on_a_tampered_trace(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "bad.jsonl"
        events = [ev("version.advance", version=2), ev("engine.event"),
                  ev("version.advance", version=1),
                  ev("flow.start", name="c", span_id=4),
                  ev(SWEEP_BOUNDARY_KIND, task="b"),
                  ev("migration.move", oid=9, to=[1])]
        path.write_text("\n\n".join(json.dumps(e) for e in events) + "\n")
        text, code = report.render_check(str(path))
        assert code == 1 and "line 5 " in text and "line 11 " in text
        monkeypatch.setattr(report, "InvariantSuite", BroadcastSuite)
        assert report.render_check(str(path)) == (text, code)


# ----------------------------------------------------------------------
# bus accounting
# ----------------------------------------------------------------------
class Recording(Sink):
    """Keeps every event object it is handed."""

    def __init__(self, kinds=None):
        self.kinds = kinds
        self.got = []

    def write(self, event):
        self.got.append(event)


class TestBusAccounting:
    def test_checker_only_bus_builds_no_dict_for_unread_kinds(self):
        bus = TraceBus()
        checker = bus.attach(CheckerSink())
        probe = bus.attach(Recording(frozenset(["serve.queue", "x.mine"])))
        calls = []
        suite_observe = checker.suite.observe
        checker.suite.observe = lambda e, i: (calls.append((e, i)),
                                              suite_observe(e, i))
        for n in range(50):
            bus.emit("engine.event", t=float(n), seq=n, fn="f")
            bus.emit("serve.enqueue", t=float(n), rid=n)
        bus.emit("serve.queue", t=50.0, server=1, depth=9, bound=3)
        bus.emit("x.mine", t=51.0)
        bus.emit("version.advance", t=52.0, version=1)
        assert bus.ordinal == 103
        # One dict per taken event, shared by the sinks that take it.
        assert [e["kind"] for e in probe.got] == ["serve.queue", "x.mine"]
        assert [(e["kind"], i) for e, i in calls] == [
            ("serve.queue", 101), ("version.advance", 103)]
        assert calls[0][0] is probe.got[0]
        violations = checker.finish()
        assert [v.index for v in violations] == [101]
        assert checker.suite.events_seen == 103

    def test_every_kind_sink_turns_skipping_off_and_on(self):
        bus = TraceBus()
        checker = bus.attach(CheckerSink())
        delivered = []
        checker.write = delivered.append
        bus.emit("engine.event", t=0.0)
        ring = bus.attach(RingBufferSink())
        bus.emit("engine.event", t=1.0)
        bus.emit("version.advance", t=2.0, version=1)
        bus.detach(ring)
        bus.emit("engine.event", t=3.0)
        assert [e["t"] for e in ring.events()] == [1.0, 2.0]
        assert [e["t"] for e in delivered] == [2.0]
        assert delivered[0] is ring.events()[1]
        assert bus.ordinal == 4

    def test_live_index_is_the_jsonl_line_number(self):
        OBS.reset()
        try:
            buf = io.StringIO()
            OBS.bus.attach(JSONLSink(buf))
            checker = OBS.bus.attach(CheckerSink())
            for n in range(7):
                OBS.bus.emit("engine.event", t=float(n), seq=n)
            OBS.bus.emit("version.advance", t=7.0, version=3)
            OBS.bus.emit("serve.complete", t=8.0)
            OBS.bus.emit("version.advance", t=9.0, version=3)
            OBS.bus.emit("engine.clock", t=9.0)
            violations = checker.finish()
            lines = buf.getvalue().splitlines()
            assert [v.index for v in violations] == [10]
            assert json.loads(lines[10 - 1]) == violations[0].event
            assert checker.suite.events_seen == len(lines) == 11
        finally:
            OBS.reset()

    def test_a_sink_counts_from_its_own_attach(self):
        """``events_seen`` is in workload fingerprints: a JSONL sink
        attached earlier must not shift a later checker's numbers."""
        bus = TraceBus()
        bus.attach(NullSink())
        for n in range(5):
            bus.emit("engine.event", t=float(n))
        checker = bus.attach(CheckerSink())
        bus.emit("version.advance", t=5.0, version=2)
        bus.emit("version.advance", t=6.0, version=2)
        bus.emit("engine.event", t=7.0)
        bus.detach(checker)
        bus.emit("engine.event", t=8.0)      # after detach: not seen
        assert [v.index for v in checker.finish()] == [2]
        assert checker.suite.events_seen == 3

    def test_cli_check_with_trace_out_agree_on_a_violation(
            self, tmp_path, capsys, monkeypatch):
        """``--check`` + ``--trace-out``: a live violation's ``line N``
        is the offending event's line in the file."""
        emit = TraceBus.emit
        forged_once = []

        def forging_emit(self, kind, t=None, **fields):
            emit(self, kind, t, **fields)
            if kind == "version.advance" and not forged_once:
                forged_once.append(True)    # the same version, again
                emit(self, kind, t, version=fields["version"], forged=True)

        monkeypatch.setattr(TraceBus, "emit", forging_emit)
        path = tmp_path / "run.jsonl"
        code = main(["three-phase", "--mode", "selective", "--scale", "0.05",
                     "--trace-out", str(path), "--check"])
        err = capsys.readouterr().err
        assert code == 1
        lines = path.read_text(encoding="utf-8").splitlines()
        forged = [n for n, ln in enumerate(lines, start=1)
                  if '"forged":true' in ln]
        assert len(forged) == 1 and forged[0] > 1
        assert f"line {forged[0]}  " in err and "version-monotonic" in err
        offline, offline_code = report.render_check(str(path))
        assert offline_code == 1
        assert [ln for ln in err.splitlines() if ln.startswith("line ")] \
            == [ln for ln in offline.splitlines() if ln.startswith("line ")]

    def test_reset_rewinds_ordinal_and_subscription(self):
        OBS.reset()
        OBS.bus.attach(CheckerSink())
        OBS.bus.emit("engine.event", t=0.0)
        assert OBS.bus.ordinal == 1
        OBS.reset()
        assert OBS.bus.ordinal == 0 and not OBS.bus.active
        probe = OBS.bus.attach(Recording(frozenset(["a"])))
        try:
            OBS.bus.emit("version.advance", t=0.0, version=1)
            OBS.bus.emit("a", t=0.0)
            assert [e["kind"] for e in probe.got] == ["a"]
            assert OBS.bus.ordinal == 2
        finally:
            OBS.reset()

    def test_capture_still_sees_everything(self):
        bus = TraceBus()
        bus.attach(CheckerSink())
        with bus.capture() as ring:
            bus.emit("engine.event", t=0.0)
            bus.emit("version.advance", t=1.0, version=1)
            bus.emit("nobody.reads", t=2.0)
        assert [e["kind"] for e in ring.events()] == [
            "engine.event", "version.advance", "nobody.reads"]

    def test_ordinal_stands_still_without_sinks(self):
        bus = TraceBus()
        bus.emit("engine.event", t=0.0)
        assert bus.ordinal == 0

    @settings(max_examples=100, deadline=None)
    @given(_streams())
    def test_takes_guard_keeps_the_accounting(self, stream):
        """A producer that asks ``takes`` before emitting leaves the
        ordinal, ``events_seen`` and every violation index as they are
        when it emits unguarded."""
        events, _indices, classes = stream
        events = [e for e in events if isinstance(e.get("kind"), str)]

        def play(guarded):
            bus = TraceBus()
            sink = bus.attach(CheckerSink(InvariantSuite(
                [cls() for cls in classes])))
            for event in copy.deepcopy(events):
                kind = event["kind"]
                if guarded and not bus.takes(kind):
                    continue
                fields = {k: v for k, v in event.items()
                          if k not in ("kind", "t")}
                bus.emit(kind, t=event.get("t"), **fields)
            bus.detach(sink)
            sink.finish()
            return bus.ordinal, verdict(sink.suite)

        assert play(guarded=True) == play(guarded=False)
        assert play(guarded=True)[0] == len(events)

    def test_takes_counts_only_what_it_skips(self):
        bus = TraceBus()
        assert not bus.takes("engine.event") and bus.ordinal == 0
        bus.attach(CheckerSink())
        assert bus.takes("version.advance") and bus.ordinal == 0
        assert not bus.takes("engine.event") and bus.ordinal == 1
        assert not bus.takes("nobody.reads") and bus.ordinal == 2

    @pytest.mark.parametrize("every", [
        RingBufferSink, NullSink, Recording, lambda: JSONLSink(io.StringIO()),
        lambda: type("Duck", (), {"write": lambda self, e: None})(),
    ], ids=["ring", "null", "recording", "jsonl", "duck"])
    def test_takes_is_true_with_an_every_kind_sink(self, every):
        bus = TraceBus()
        bus.attach(CheckerSink())
        bus.attach(every())
        for kind in ALL_KINDS + ["engine.event", "serve.enqueue",
                                 "serve.reject", "serve.complete",
                                 "nobody.reads"]:
            assert bus.takes(kind)
        assert bus.ordinal == 0

    def test_duck_typed_sink_takes_every_kind(self):
        class Duck:
            def __init__(self):
                self.got = []

            def write(self, event):
                self.got.append(event["kind"])

        bus = TraceBus()
        bus.attach(CheckerSink())
        duck = bus.attach(Duck())
        bus.emit("nobody.reads", t=0.0)
        bus.detach(duck)
        assert duck.got == ["nobody.reads"]
