"""The one drain body equals the loop it replaced.

``Simulator.step``, ``run`` and ``run_until`` go through one private
drain loop.  ``_reference_loop`` is the old ``peek_time()`` + ``step()``
loop.  Generated schedules — same-instant events, handlers that
schedule at ``now`` and at exactly the ``run_until`` limit, cancels and
raises from inside handlers, limits that fall between events — are
played through both, and everything observable must agree: firing
order, ``now``, ``pending``, the ``engine.*`` counters and the
``engine.event`` / ``engine.clock`` events, under an every-kind ring
buffer and under a checker-only bus (where ``engine.event`` is counted,
not built).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import OBS
from repro.obs.invariants import CheckerSink
from repro.obs.trace import RingBufferSink
from repro.simulation.engine import Simulator
from tests.simulation import _reference_loop

DRAIN = SimpleNamespace(run_until=Simulator.run_until, step=Simulator.step,
                        run=Simulator.run)

#: Events a handler may still schedule (run() must end).
CAP = 48
TIMES = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]


class Boom(Exception):
    pass


ACTIONS = st.one_of(
    st.tuples(st.just("after"), st.sampled_from([0.0, 0.0, 0.25, 1.0])),
    st.just(("at_limit",)),
    st.tuples(st.just("cancel"), st.integers(0, CAP)),
    st.just(("raise",)),
)
OPS = st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.1, 0.25, 0.6, 1.5])),
    st.just(("step",)),
    st.just(("run",)),
)


@st.composite
def scripts(draw):
    initial = draw(st.lists(st.sampled_from(TIMES), max_size=12))
    plans = draw(st.lists(st.lists(ACTIONS, max_size=3), min_size=1,
                          max_size=12))
    cancels = draw(st.lists(st.integers(0, 11), max_size=3))
    ops = draw(st.lists(OPS, min_size=1, max_size=6))
    return initial, plans, cancels, ops


def play(script, loop):
    """Run *script* on a fresh simulator through *loop*; what it saw."""
    initial, plans, cancels, ops = script
    sim = Simulator()
    fired, handles, limit = [], [], [0.0]

    def schedule(t):
        handles.append(sim.schedule_at(t, fire, len(handles)))

    def fire(i):
        fired.append((i, sim.now, sim.pending))
        for act in plans[i % len(plans)]:
            if act[0] == "after" and len(handles) < CAP:
                schedule(sim.now + act[1])
            elif act[0] == "at_limit" and len(handles) < CAP:
                schedule(max(limit[0], sim.now))
            elif act[0] == "cancel":
                sim.cancel(handles[act[1] % len(handles)])
            elif act[0] == "raise":
                raise Boom(i)

    for t in initial:
        schedule(t)
    for k in cancels:
        if handles:
            sim.cancel(handles[k % len(handles)])
    results = []
    for op in ops:
        try:
            if op[0] == "until":
                limit[0] = sim.now + op[1]
                results.append(loop.run_until(sim, limit[0]))
            elif op[0] == "step":
                results.append(loop.step(sim))
            else:
                results.append(loop.run(sim))
        except Boom as exc:
            results.append(("boom", exc.args))
        results.append((sim.now, sim.pending))
    return fired, results


def observe(script, loop, sink_factory):
    """:func:`play` under a fresh bus with one sink attached."""
    OBS.reset()
    try:
        sink = OBS.bus.attach(sink_factory())
        seen = play(script, loop)
        counters = {k: v for k, v in OBS.metrics.snapshot().items()
                    if k.startswith("engine.")}
        if isinstance(sink, CheckerSink):
            trace = ([v.index for v in sink.finish()],
                     sink.suite.events_seen)
        else:
            trace = sink.events()
        return seen, counters, trace, OBS.bus.ordinal
    finally:
        OBS.reset()


def ring():
    return RingBufferSink(capacity=100_000)


class TestDrainEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(scripts())
    def test_every_kind_sink(self, script):
        drained = observe(script, DRAIN, ring)
        assert drained == observe(script, _reference_loop, ring)
        kinds = {e["kind"] for e in drained[2]}
        assert kinds <= {"engine.event", "engine.clock"}

    @settings(max_examples=150, deadline=None)
    @given(scripts())
    def test_checker_only_bus(self, script):
        drained = observe(script, DRAIN, CheckerSink)
        assert drained == observe(script, _reference_loop, CheckerSink)
        # Every engine.event was counted, none was built.
        fired = len(drained[0][0])
        assert drained[1].get("engine.events", 0) == fired
        assert drained[3] == drained[2][1] >= fired

    def test_a_sample_script_exercises_every_path(self):
        script = ([0.0, 0.25, 0.25, 1.0],
                  [[("after", 0.0)], [("at_limit",), ("cancel", 3)],
                   [("raise",)], []],
                  [2], [("until", 0.1), ("until", 0.6), ("step",),
                        ("run",), ("run",)])
        seen, counters, trace, ordinal = observe(script, DRAIN, ring)
        assert seen == observe(script, _reference_loop, ring)[0]
        assert ("boom", (6,)) in seen[1]
        assert counters["engine.cancelled"] == 2
        assert ordinal == len(trace)


@pytest.mark.parametrize("loop", [DRAIN, _reference_loop],
                         ids=["drain", "reference"])
def test_cancelled_count_is_the_same_for_every_entry_point(loop):
    for drive in (lambda sim: loop.run(sim),
                  lambda sim: loop.run_until(sim, 2.0),
                  lambda sim: (loop.step(sim), loop.step(sim))):
        OBS.reset()
        try:
            sim = Simulator()
            sim.cancel(sim.schedule_at(1.0, lambda: None))
            sim.schedule_at(1.5, lambda: None)
            drive(sim)
            assert OBS.metrics.snapshot()["engine.cancelled"] == 1
            assert OBS.metrics.snapshot()["engine.events"] == 1
        finally:
            OBS.reset()


@pytest.mark.parametrize("loop", [DRAIN, _reference_loop],
                         ids=["drain", "reference"])
def test_a_sink_attached_mid_drain_is_seen_at_the_next_event(loop):
    """The drain reads the bus's subscription table per event: a ring
    buffer attached by one handler gets the next ``engine.event`` and
    one detached by a later handler gets none after it, while the
    checker-only stretches before and after are only counted."""
    OBS.reset()
    try:
        checker = OBS.bus.attach(CheckerSink())
        ring_sink = RingBufferSink()
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(float(t), lambda: None)
        sim.schedule_at(1.0, OBS.bus.attach, ring_sink)
        sim.schedule_at(3.0, OBS.bus.detach, ring_sink)
        loop.run_until(sim, 5.0)
        # (an event is published before its handler runs: the attach's
        # own event is not seen, the detach's is)
        assert [e["t"] for e in ring_sink.events("engine.event")] == [
            2.0, 3.0, 3.0]
        assert OBS.bus.ordinal == 7 + 1          # + engine.clock
        checker.finish()
        assert checker.suite.events_seen == OBS.bus.ordinal
    finally:
        OBS.reset()
