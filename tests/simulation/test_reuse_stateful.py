"""Generated equivalence test for allocation reuse.

Two ``IOModel``\\ s are driven side by side through the same arbitrary
interleaving of everything a driver can do between ticks — add and
retire flows, preempt them, replace or re-point coefficients,
throttle, change capacities (vouched for by a ``capacity_token`` or
not), step, run.  One model is the product as shipped; on the other,
``advance_cached`` always answers "not provably fresh", so every tick
is a real solve.  After every operation the two must agree on what
they emitted, and after every step on the samples, each flow's
``progressed`` and the order callbacks fired in: reuse may skip the
solver, never change what the solver would have said.  On every tick
the product's identity proof is also held to :func:`fresh_by_value`,
the ordered-items proof it replaced: it may answer "fresh" only when
that one would.

Four servers keep every solve below the size cutover, so
``ReuseMachine`` only ever drives the scalar backend.
``ColumnarReuseMachine`` is the same machine with the product side's
cutover patched to 0 — the columnar backend and the flow set's column
cache on every solve — against an always-solve, always-scalar
reference; ``test_cached_compile_equals_fresh_compile`` checks the
cache at the level below, column for column.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs.runtime import OBS
from repro.simulation import bandwidth
from repro.simulation.bandwidth import FlowSpec
from repro.simulation.columnar import ColumnCache, compile_problem
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import IOModel

SERVERS = ("a", "b", "c", "d")
COEFFS = st.dictionaries(st.sampled_from(SERVERS),
                         st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                         min_size=1, max_size=3)
RATE_CAPS = st.sampled_from([math.inf, 5.0, 20.0, 33.3, 80.0])
CAPACITIES = st.sampled_from([0.0, 10.0, 40.0, 64.0, 100.0])
#: Whether a perturbation is followed by a tick straight away.
TICK_NEXT = st.sampled_from([True, True, True, False])
#: Span ids come from one process-wide counter, so the two models
#: never share them; everything else in an event must match.
_PER_MODEL_FIELDS = ("span_id", "parent_id")


def fresh_by_value(flows, dt, items):
    """The reuse proof from before coefficients were values, kept as an
    oracle: the cached allocation of *flows* is fresh for a tick of
    *dt* when membership, dt, rate caps, demands and every live flow's
    coefficients — compared as ordered items against *items*, taken
    at the solve — are all unchanged."""
    a = flows._alloc
    if a is None or a["generation"] != flows.generation or dt != a["dt"]:
        return False
    return all(
        f.rate_cap == cap and f.demand_for(dt) == dem
        and list(f.coefficients.items()) == snapshot
        for f, snapshot, cap, dem in zip(a["live"], items, a["caps"],
                                         a["demands"]))


class Side:
    """One model plus everything observed about it."""

    def __init__(self, use_token, reuse, cutover):
        #: ``_AUTO_CUTOVER_CELLS`` while this side runs: 0 = columnar
        #: on every solve, ``inf`` = always scalar.
        self.cutover = cutover
        self.caps = {s: 64.0 for s in SERVERS}
        self.version = 0
        self.io = IOModel(
            lambda: dict(self.caps), dt=1.0,
            capacity_token=(lambda: self.version) if use_token else None)
        if reuse:
            self.hold_reuse_to_the_value_proof()
        else:
            self.io.flows.advance_cached = lambda dt: None
        self.flows = []         # every flow ever added, by position
        self.callbacks = []     # (kind, flow position), in firing order
        self.now = 0.0

    def add(self, name, coeffs, total_bytes, rate_cap, share_with=None):
        """*share_with* = position of a flow whose coefficient mapping
        *object* the new flow uses too, instead of a copy of *coeffs*."""
        pos = len(self.flows)
        mapping = (dict(coeffs) if share_with is None
                   else self.flows[share_with].coefficients)
        flow = FluidFlow(
            name, mapping, total_bytes=total_bytes, rate_cap=rate_cap,
            on_complete=lambda f: self.callbacks.append(("complete", pos)),
            on_interrupt=lambda f: self.callbacks.append(("interrupt", pos)))
        self.flows.append(flow)
        self.io.flows.add(flow)

    def hold_reuse_to_the_value_proof(self):
        """Snapshot every solve's coefficients by value, and fail any
        reuse :func:`fresh_by_value` would not grant."""
        flows = self.io.flows
        solve, reuse = flows.advance, flows.advance_cached
        items = []

        def advance(dt, capacities):
            items.clear()
            achieved = solve(dt, capacities)
            if flows._alloc is not None:
                items.extend(list(f.coefficients.items())
                             for f in flows._alloc["live"])
            return achieved

        def advance_cached(dt):
            by_value = fresh_by_value(flows, dt, items)
            achieved = reuse(dt)
            assert achieved is None or by_value
            return achieved
        flows.advance, flows.advance_cached = advance, advance_cached

    def live(self):
        """Positions of the flows still in the set."""
        members = {id(f) for f in self.io.flows}
        return [i for i, f in enumerate(self.flows) if id(f) in members]


class ReuseMachine(RuleBasedStateMachine):
    #: The product side's solver cutover: as shipped (every solve here
    #: is then scalar) unless a subclass moves it.
    PRODUCT_CUTOVER = bandwidth._AUTO_CUTOVER_CELLS

    @initialize(use_token=st.booleans(), coeffs=COEFFS)
    def build(self, use_token, coeffs):
        OBS.reset()
        self.product = Side(use_token, reuse=True,
                            cutover=self.PRODUCT_CUTOVER)
        self.reference = Side(use_token, reuse=False, cutover=math.inf)
        self.sides = (self.product, self.reference)
        # Start with an allocation already cached, so the very first
        # perturbation lands on a warm cache.
        self.add_stream(coeffs, math.inf, then_tick=True)

    def teardown(self):
        OBS.reset()

    def both(self, op):
        """Apply *op* to each side in turn; the event streams the two
        applications emit must be equal."""
        emitted = []
        for side in self.sides:
            with mock.patch.object(bandwidth, "_AUTO_CUTOVER_CELLS",
                                   side.cutover), \
                    OBS.bus.capture(capacity=100_000) as sink:
                op(side)
                emitted.append([
                    {k: v for k, v in e.items()
                     if k not in _PER_MODEL_FIELDS}
                    for e in sink.events()])
        assert emitted[0] == emitted[1]

    def perturb(self, op, then_tick):
        """A change between ticks.  Usually the next thing a driver
        does is tick — the moment a stale allocation would show — so
        most perturbations are followed by one directly; the rest pile
        up several changes before the next tick."""
        self.both(op)
        if then_tick:
            self.step()

    def pick_live(self, data):
        return data.draw(st.sampled_from(self.product.live()))

    def has_live(self):
        return bool(self.product.live())

    # -- membership ----------------------------------------------------
    @rule(coeffs=COEFFS, rate_cap=RATE_CAPS, then_tick=TICK_NEXT)
    def add_stream(self, coeffs, rate_cap, then_tick):
        self.perturb(lambda s: s.add("stream", coeffs, None, rate_cap),
                     then_tick)

    @rule(coeffs=COEFFS, rate_cap=RATE_CAPS, then_tick=TICK_NEXT,
          total=st.sampled_from([1.0, 60.0, 333.0, 5_000.0]))
    def add_finite(self, coeffs, rate_cap, total, then_tick):
        self.perturb(lambda s: s.add("transfer", coeffs, total, rate_cap),
                     then_tick)

    @precondition(has_live)
    @rule(data=st.data(), rate_cap=RATE_CAPS, then_tick=TICK_NEXT)
    def add_sharing_a_mapping(self, data, rate_cap, then_tick):
        # Two flows handed one coefficient mapping: each holds its own
        # frozen copy, and re-pointing one leaves the other alone.
        pos = self.pick_live(data)
        self.perturb(lambda s: s.add("stream", None, None, rate_cap,
                                     share_with=pos), then_tick)

    @precondition(has_live)
    @rule(data=st.data(), then_tick=TICK_NEXT)
    def remove(self, data, then_tick):
        pos = self.pick_live(data)
        self.perturb(lambda s: s.io.flows.remove(s.flows[pos]), then_tick)

    @precondition(has_live)
    @rule(data=st.data(), then_tick=TICK_NEXT)
    def interrupt(self, data, then_tick):
        pos = self.pick_live(data)
        self.perturb(lambda s: s.io.flows.interrupt(s.flows[pos]),
                     then_tick)

    # -- solve inputs, changed behind the cache's back -----------------
    @precondition(has_live)
    @rule(data=st.data(), coeffs=COEFFS, then_tick=TICK_NEXT)
    def replace_coefficients(self, data, coeffs, then_tick):
        pos = self.pick_live(data)
        self.perturb(lambda s: setattr(s.flows[pos], "coefficients",
                                       dict(coeffs)), then_tick)

    @precondition(has_live)
    @rule(data=st.data(), server=st.sampled_from(SERVERS),
          coef=st.sampled_from([0.25, 1.0, 3.0]), then_tick=TICK_NEXT)
    def repoint_one_coefficient(self, data, server, coef, then_tick):
        # The driver-side idiom for a value change: a new mapping that
        # differs from the old one in one entry (or not at all).
        pos = self.pick_live(data)

        def repoint(side):
            flow = side.flows[pos]
            flow.coefficients = {**flow.coefficients, server: coef}
        self.perturb(repoint, then_tick)

    @precondition(has_live)
    @rule(data=st.data(), rate_cap=RATE_CAPS, then_tick=TICK_NEXT)
    def change_rate_cap(self, data, rate_cap, then_tick):
        pos = self.pick_live(data)
        self.perturb(lambda s: setattr(s.flows[pos], "rate_cap", rate_cap),
                     then_tick)

    @rule(server=st.sampled_from(SERVERS), cap=CAPACITIES,
          then_tick=TICK_NEXT)
    def change_capacity(self, server, cap, then_tick):
        # With a token the driver's side of the contract is to move it
        # whenever a capacity input moves; without one the model
        # compares dicts itself.
        def change(side):
            side.caps[server] = cap
            side.version += 1
        self.perturb(change, then_tick)

    @rule(server=st.sampled_from(SERVERS), then_tick=TICK_NEXT)
    def drop_or_restore_capacity_key(self, server, then_tick):
        # A server leaves the capacity dict (its coefficients now name
        # an unknown resource) or comes back *last* in key order:
        # either way every later column is renumbered.
        def flip(side):
            if side.caps.pop(server, None) is None:
                side.caps[server] = 64.0
            side.version += 1
        self.perturb(flip, then_tick)

    @rule(then_tick=TICK_NEXT)
    def token_moves_without_a_change(self, then_tick):
        # Over-reporting is allowed: it may cost a solve, nothing else.
        def bump(side):
            side.version += 1
        self.perturb(bump, then_tick)

    # -- time ----------------------------------------------------------
    @staticmethod
    def solving(side, advance):
        """Run *advance*; a solver error (an elastic flow left with no
        known resource once a capacity key is gone) is an outcome to
        compare like any other, not a test failure."""
        try:
            advance()
        except ValueError as err:
            side.callbacks.append(("error", str(err)))

    @rule()
    def step(self):
        def step(side):
            side.now += side.io.dt
            self.solving(side, lambda: side.io.step(side.now))
        self.both(step)

    @rule(ticks=st.integers(min_value=1, max_value=12),
          half=st.booleans(), watch=st.booleans())
    def run(self, ticks, half, watch):
        duration = ticks + (0.5 if half else 0.0)

        def run(side):
            on_tick = ((lambda t: side.callbacks.append(("tick", t)))
                       if watch else None)
            self.solving(side, lambda: side.io.run(
                duration, start=side.now, on_tick=on_tick))
            side.now = side.io.samples[-1][0]
        self.both(run)

    # -- the comparison ------------------------------------------------
    @invariant()
    def same_observable_state(self):
        if not hasattr(self, "sides"):
            return
        product, reference = self.sides
        assert product.io.samples == reference.io.samples
        assert ([(f.progressed, f.last_rate) for f in product.flows]
                == [(f.progressed, f.last_rate) for f in reference.flows])
        assert product.callbacks == reference.callbacks
        assert product.live() == reference.live()


class ColumnarReuseMachine(ReuseMachine):
    PRODUCT_CUTOVER = 0


TestReuseMachine = ReuseMachine.TestCase
TestColumnarReuseMachine = ColumnarReuseMachine.TestCase
TestReuseMachine.settings = TestColumnarReuseMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)


# ----------------------------------------------------------------------
# the column cache, directly
# ----------------------------------------------------------------------
SLOTS = st.integers(min_value=0, max_value=5)
#: Whether a mapping is a flow's frozen coefficients (cached by
#: identity) or a plain dict (compiled afresh on every solve).
FROZEN = st.booleans()
CACHE_OPS = st.one_of(
    st.tuples(st.just("add"), COEFFS, FROZEN),
    st.tuples(st.just("share"), SLOTS),
    st.tuples(st.just("remove"), SLOTS),
    st.tuples(st.just("replace"), SLOTS, COEFFS, FROZEN),
    st.tuples(st.just("set"), SLOTS, st.sampled_from(SERVERS + ("ghost",)),
              st.sampled_from([0.25, 1.0, 3.0])),
    st.tuples(st.just("forget"), SLOTS, st.sampled_from(SERVERS)),
    st.tuples(st.just("capacity"), st.sampled_from(SERVERS), CAPACITIES),
    st.tuples(st.just("key"), st.sampled_from(SERVERS)),
)


def coefficients(mapping, frozen):
    """*mapping* as a flow would hold it, or as a plain dict."""
    return (FluidFlow("f", mapping).coefficients if frozen
            else dict(mapping))


@settings(max_examples=200, deadline=None)
@given(st.lists(CACHE_OPS, min_size=1, max_size=30))
def test_cached_compile_equals_fresh_compile(ops):
    """Whatever happened to the flows and capacities since the cache
    last compiled them, compiling through it gives the columns a cold
    compile gives, array for array.  A plain dict changes in place; a
    frozen mapping changes only by re-pointing the flow."""
    flows = [FlowSpec(coefficients({"a": 1.0, "b": 0.5}, True), 10.0)]
    capacities = {s: 64.0 for s in SERVERS}
    cache = ColumnCache()
    for op, *args in ops:
        if op == "add":
            flows.append(FlowSpec(coefficients(args[0], args[1]), 5.0))
        elif op == "capacity":
            capacities[args[0]] = args[1]
        elif op == "key":
            if capacities.pop(args[0], None) is None:
                capacities[args[0]] = 64.0
        elif flows:                     # the rest act on one flow
            slot = args[0] % len(flows)
            flow = flows[slot]
            mapping = flow.coefficients
            if op == "share":
                flows.append(FlowSpec(mapping, 7.0))
            elif op == "remove":
                del flows[slot]
            elif op == "replace":
                flow.coefficients = coefficients(args[1], args[2])
            else:               # a plain dict in place, a frozen one
                target = mapping if type(mapping) is dict else dict(mapping)
                if op == "set":
                    target[args[1]] = args[2]
                else:
                    target.pop(args[1], None)
                if target is not mapping:       # ... by re-pointing
                    flow.coefficients = coefficients(target, True)
        warm = compile_problem(flows, capacities, cache)
        cold = compile_problem(flows, capacities)
        assert (warm.n_flows, warm.n_resources, warm.resources) \
            == (cold.n_flows, cold.n_resources, cold.resources)
        for column in ("flow_idx", "res_idx", "coef", "demand", "capacity"):
            got, want = getattr(warm, column), getattr(cold, column)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), column
        # Each segment holds the very mapping it was compiled from.
        assert all(cache.segments[id(f.coefficients)][0] is f.coefficients
                   for f in flows)
