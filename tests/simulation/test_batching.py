"""Allocation reuse must never change a result.

A tick advances in exactly two ways — a max-min-fair solve
(``FlowSet.advance``) or reuse of the previous solve's rates
(``FlowSet.advance_cached``).  The always-solve reference is reached
from outside the product: ``advance_cached`` is patched to report "not
provably fresh" (``None``), which sends every tick down ``advance``.

Two layers of pinning:

* whole runs — fig7 and chaos produce the identical result object
  (samples, progress, completion ticks) and the sha256-identical event
  stream with reuse or without it, and with either solver backend
  (forced by moving the size cutover); the traces carry every per-tick
  ``bandwidth.solve`` / ``engine.tick`` event and every rate, so this
  is the strongest cheap check we have;
* single models — ``IOModel.run`` reproduces the always-solve
  ``samples`` exactly (timestamps and rates bit-for-bit), and every
  cache-invalidation edge (capacity, coefficient, rate-cap, membership
  changes, completions) re-solves.

``test_reuse_stateful.py`` generates the interleavings these cases
pick by hand.
"""

import hashlib
import io
import math
from contextlib import contextmanager, nullcontext
from types import MappingProxyType
from unittest import mock

import pytest

from repro.experiments.three_phase import run_three_phase
from repro.faults.harness import run_chaos
from repro.obs.runtime import OBS
from repro.obs.trace import JSONLSink
from repro.simulation import bandwidth
from repro.simulation.flows import FlowSet, FluidFlow
from repro.simulation.iomodel import IOModel


@contextmanager
def always_solve():
    """No tick may reuse an allocation inside this block."""
    with mock.patch.object(FlowSet, "advance_cached",
                           lambda self, dt: None):
        yield


def solver_cutover(cells):
    """Force one backend: 0 = always columnar, inf = always scalar."""
    return mock.patch.object(bandwidth, "_AUTO_CUTOVER_CELLS", cells)


def traced(fn):
    """(sha256 of the run's JSONL trace, the run's result)."""
    OBS.reset()
    buf = io.StringIO()
    sink = JSONLSink(buf)
    OBS.bus.attach(sink)
    try:
        result = fn()
    finally:
        OBS.bus.detach(sink)
        OBS.reset()
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), result


def solves(fn):
    """How many times *fn* went to the solver."""
    OBS.reset()
    fn()
    count = OBS.metrics.counter("bandwidth.solves").value
    OBS.reset()
    return count


class TestTraceIdentity:
    def test_fig7_batching_and_solver_invariant(self):
        def replay():
            return run_three_phase(mode="selective", scale=0.02)

        base = traced(replay)
        with always_solve():
            assert traced(replay) == base
            with solver_cutover(0):
                assert traced(replay) == base
        with solver_cutover(0):
            assert traced(replay) == base
        with solver_cutover(math.inf):
            assert traced(replay) == base

    def test_chaos_batching_invariant(self):
        def replay():
            return run_chaos(seed=7, scale=0.1, check=False)

        base = traced(replay)
        with always_solve():
            assert traced(replay) == base
        with solver_cutover(0):
            assert traced(replay) == base

    def test_reuse_actually_engages(self):
        # The identities above would hold trivially if reuse never
        # fired; most ticks of this short replay must skip the solver.
        def replay():
            run_three_phase(mode="selective", scale=0.02)

        reused = solves(replay)
        with always_solve():
            every_tick = solves(replay)
        assert reused * 2 < every_tick


def run_samples(build, duration, reuse):
    """Run a scenario and return (samples, final flow progress)."""
    io_model, flows = build()
    with nullcontext() if reuse else always_solve():
        io_model.run(duration)
    return io_model.samples, [(f.name, f.progressed) for f in flows]


class TestRunBatchIdentity:
    def scenario_mixed(self):
        io_model = IOModel(lambda: {"a": 100.0, "b": 80.0}, dt=1.0)
        stream = io_model.flows.add(
            FluidFlow("client", {"a": 1.0, "b": 0.5}, rate_cap=60.0))
        finite = io_model.flows.add(
            FluidFlow("migration", {"a": 0.5, "b": 1.0},
                      total_bytes=2_000.0, rate_cap=45.0))
        return io_model, [stream, finite]

    def test_samples_bitwise_identical(self):
        reused, prog_r = run_samples(self.scenario_mixed, 300.0, reuse=True)
        solved, prog_s = run_samples(self.scenario_mixed, 300.0, reuse=False)
        assert len(reused) == len(solved) == 300
        for (tr, sr), (ts, ss) in zip(reused, solved):
            assert tr == ts
            assert sr == ss
        assert prog_r == prog_s

    def test_completion_lands_on_same_tick(self):
        completions = []

        def build():
            io_model = IOModel(lambda: {"a": 50.0}, dt=1.0)
            f = io_model.flows.add(
                FluidFlow("m", {"a": 1.0}, total_bytes=333.0, rate_cap=10.0,
                          on_complete=lambda fl: completions.append(
                              len(io_model.samples))))
            return io_model, [f]

        reused, _ = run_samples(build, 100.0, reuse=True)
        tick_reused = completions.pop()
        solved, _ = run_samples(build, 100.0, reuse=False)
        tick_solved = completions.pop()
        assert tick_reused == tick_solved
        assert reused == solved

    def test_fractional_final_tick(self):
        def build():
            io_model = IOModel(lambda: {"a": 40.0}, dt=1.0)
            f = io_model.flows.add(FluidFlow("c", {"a": 1.0}, rate_cap=30.0))
            return io_model, [f]

        reused, prog_r = run_samples(build, 10.5, reuse=True)
        solved, prog_s = run_samples(build, 10.5, reuse=False)
        assert reused == solved
        assert prog_r == prog_s


class TestCacheInvalidation:
    def test_capacity_change_via_token(self):
        state = {"cap": 100.0, "version": 0}
        io_model = IOModel(lambda: {"a": state["cap"]}, dt=1.0,
                           capacity_token=lambda: state["version"])
        io_model.flows.add(FluidFlow("c", {"a": 1.0}))
        io_model.step(1.0)
        state["cap"] = 40.0
        state["version"] += 1
        io_model.step(2.0)
        _, vals = io_model.series("c")
        assert vals == [100.0, 40.0]

    def test_capacity_change_via_dict_compare(self):
        state = {"cap": 100.0}
        io_model = IOModel(lambda: {"a": state["cap"]}, dt=1.0)
        io_model.flows.add(FluidFlow("c", {"a": 1.0}))
        io_model.step(1.0)
        state["cap"] = 40.0
        io_model.step(2.0)
        _, vals = io_model.series("c")
        assert vals == [100.0, 40.0]

    def test_coefficient_change_invalidates(self):
        io_model = IOModel(lambda: {"a": 100.0, "b": 100.0}, dt=1.0)
        f = io_model.flows.add(FluidFlow("c", {"a": 1.0}))
        io_model.step(1.0)
        io_model.step(2.0)
        f.coefficients = {"b": 2.0}      # re-pointed at another disk
        io_model.step(3.0)
        _, vals = io_model.series("c")
        assert vals == [100.0, 100.0, 50.0]

    def test_rate_cap_change_invalidates(self):
        io_model = IOModel(lambda: {"a": 100.0}, dt=1.0)
        f = io_model.flows.add(FluidFlow("c", {"a": 1.0}))
        io_model.step(1.0)
        f.rate_cap = 25.0
        io_model.step(2.0)
        _, vals = io_model.series("c")
        assert vals == [100.0, 25.0]

    def test_membership_change_invalidates(self):
        io_model = IOModel(lambda: {"a": 100.0}, dt=1.0)
        io_model.flows.add(FluidFlow("c", {"a": 1.0}))
        io_model.step(1.0)
        second = io_model.flows.add(FluidFlow("d", {"a": 1.0}))
        io_model.step(2.0)
        io_model.flows.remove(second)
        io_model.step(3.0)
        _, vals = io_model.series("c")
        assert vals == [100.0, 50.0, 100.0]

    def test_coefficients_reject_item_assignment(self):
        # Coefficients are values: the only way to change them is to
        # assign the flow a new mapping, which reuse sees by identity.
        flow = FluidFlow("c", {"a": 1.0})
        with pytest.raises(TypeError):
            flow.coefficients["a"] = 2.0
        with pytest.raises(TypeError):
            flow.coefficients.update(b=1.0)
        assert flow.coefficients == {"a": 1.0}

    @pytest.mark.parametrize("view", [lambda d: d, MappingProxyType],
                             ids=["dict", "mappingproxy"])
    def test_caller_dict_mutation_does_not_reach_the_flow(self, view):
        # The flow keeps a copy, so the caller's dict (or a read-only
        # view of it) changing in place changes no rate.
        io_model = IOModel(lambda: {"a": 100.0}, dt=1.0)
        coeffs = {"a": 1.0}
        io_model.flows.add(FluidFlow("c", view(coeffs)))
        io_model.step(1.0)
        coeffs["a"] = 2.0
        io_model.step(2.0)
        with always_solve():
            io_model.step(3.0)
        _, vals = io_model.series("c")
        assert vals == [100.0, 100.0, 100.0]

    def test_demand_change_mid_stretch_differs_from_stale_cache(self):
        # The regression the serving throttle flushed out: a demand
        # (rate_cap) change mid-stretch must produce the same rates
        # the always-solve path computes — i.e. genuinely different
        # from what replaying the stale allocation would give.
        def run():
            io_model = IOModel(lambda: {"a": 100.0}, dt=1.0)
            f = io_model.flows.add(FluidFlow("c", {"a": 1.0}))
            io_model.run(4.0)
            f.rate_cap = 30.0       # throttled mid-stretch
            for t in (5.0, 6.0, 7.0, 8.0):
                io_model.step(t)
            return io_model.series("c")[1]

        cached = run()
        with always_solve():
            fresh = run()
        assert cached == fresh == [100.0] * 4 + [30.0] * 4

    def test_retired_by_total_bytes_clamp(self):
        # The original-CH driver retires a flow by setting
        # total_bytes = progressed; the next tick must notice despite
        # no generation bump (the demand check catches it).
        io_model = IOModel(lambda: {"a": 100.0}, dt=1.0)
        f = io_model.flows.add(
            FluidFlow("r", {"a": 1.0}, total_bytes=1e9, rate_cap=10.0))
        io_model.flows.add(FluidFlow("c", {"a": 1.0}))
        io_model.step(1.0)
        io_model.step(2.0)
        f.total_bytes = f.progressed
        io_model.step(3.0)
        assert len(io_model.flows) == 1
        _, vals = io_model.series("c")
        assert vals == [90.0, 90.0, 100.0]
