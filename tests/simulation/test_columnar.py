"""Bit-for-bit identity of the columnar solver vs the scalar reference.

The contract is exact float equality (never ``approx``): traces hash
the rates, so the two backends must produce the identical IEEE-754
doubles on every instance, including the awkward ones (elastic flows,
zero demands, zero-capacity resources, unknown resources).
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.runtime import OBS
from repro.simulation import bandwidth, columnar
from repro.simulation.bandwidth import (
    FlowSpec,
    max_min_fair,
    max_min_fair_scalar,
)
from repro.simulation.columnar import (
    ColumnCache,
    compile_problem,
    max_min_fair_columnar,
)
from repro.simulation.flows import FluidFlow


def random_instance(rng):
    """One randomized allocation problem mixing every flow species:
    elastic / capped / zero-demand, some touching a zero-capacity
    resource, some an unknown resource."""
    n_res = rng.randint(1, 12)
    resources = [f"s{i}" for i in range(n_res)]
    capacities = {}
    for r in resources:
        capacities[r] = 0.0 if rng.random() < 0.12 else rng.uniform(1.0, 200.0)
    flows = []
    for _ in range(rng.randint(1, 20)):
        k = rng.randint(1, min(4, n_res))
        coeffs = {r: rng.uniform(0.05, 3.0)
                  for r in rng.sample(resources, k)}
        if rng.random() < 0.15:
            coeffs["ghost"] = rng.uniform(0.1, 2.0)   # unknown resource
        roll = rng.random()
        if roll < 0.15:
            demand = math.inf
        elif roll < 0.25:
            demand = 0.0
        else:
            demand = rng.uniform(0.1, 300.0)
        flows.append(FlowSpec(coefficients=coeffs, demand=demand))
    return flows, capacities


def assert_bit_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        # == plus sign-of-zero: full bit equality for non-NaN doubles.
        assert x == y
        assert math.copysign(1.0, x) == math.copysign(1.0, y)


# Few distinct values, most of them powers of two: equal demands,
# several resources draining at the same pace, and a demand cap met in
# the very round a resource saturates all come up constantly — the
# ties `random_instance`'s continuous draws never produce.
TIED_DEMANDS = st.sampled_from(
    [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 400.0, math.inf, math.inf])
TIED_COEFS = st.sampled_from([0.25, 0.5, 1.0, 2.0, 1.0 / 6.0])
TIED_CAPS = st.sampled_from([0.0, 1.0, 2.0, 4.0, 8.0, 64.0, 64.0])


@st.composite
def tied_instances(draw):
    """`flow_storm`'s shape in miniature: a few flows over *every*
    resource, then many flows over at most six, some frozen at entry
    (zero demand, a zero-capacity or only an unknown resource)."""
    resources = list(range(draw(st.integers(1, 10))))
    capacities = {r: draw(TIED_CAPS) for r in resources}
    flows = [FlowSpec({r: 1.0 / len(resources) for r in resources},
                      draw(TIED_DEMANDS))
             for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(1, 14))):
        touched = draw(st.lists(st.sampled_from(resources + ["ghost"]),
                                min_size=1, max_size=6, unique=True))
        flows.append(FlowSpec({r: draw(TIED_COEFS) for r in touched},
                              draw(TIED_DEMANDS)))
    return flows, capacities


def outcome(solver, flows, capacities, *extra):
    """(rates or the error text, solves counted, rounds counted)."""
    solves = OBS.metrics.counter("bandwidth.solves")
    rounds = OBS.metrics.counter("bandwidth.filling_rounds")
    before = solves.value, rounds.value
    try:
        result = solver(flows, capacities, *extra)
    except ValueError as err:
        result = str(err)
    return result, solves.value - before[0], rounds.value - before[1]


def assert_same_outcome(flows, capacities, *extra):
    """The columnar backend returns the scalar solver's bits (or its
    error) and moves the two solver counters — both are in the metrics
    snapshot every ledger digest hashes — by the same amounts."""
    rates_s, solves_s, rounds_s = outcome(max_min_fair_scalar, flows,
                                          capacities)
    rates_c, solves_c, rounds_c = outcome(max_min_fair_columnar, flows,
                                          capacities, *extra)
    if isinstance(rates_s, str):
        assert rates_c == rates_s
    else:
        assert_bit_identical(rates_s, rates_c)
    assert (solves_c, rounds_c) == (solves_s, rounds_s)


class TestBitIdentity:
    def test_property_randomized_instances(self):
        rng = random.Random(0xC01)
        for _ in range(300):
            flows, capacities = random_instance(rng)
            assert_bit_identical(max_min_fair_scalar(flows, capacities),
                                 max_min_fair_columnar(flows, capacities))

    def test_large_instance(self):
        rng = random.Random(7)
        capacities = {i: rng.uniform(10.0, 100.0) for i in range(1000)}
        flows = [FlowSpec(coefficients={r: rng.uniform(0.1, 2.0)
                                        for r in rng.sample(range(1000), 8)},
                          demand=(math.inf if i % 5 == 0
                                  else rng.uniform(1.0, 500.0)))
                 for i in range(60)]
        assert_bit_identical(max_min_fair_scalar(flows, capacities),
                             max_min_fair_columnar(flows, capacities))

    @settings(max_examples=400, deadline=None)
    @given(tied_instances())
    def test_property_tied_instances_and_counters(self, instance):
        assert_same_outcome(*instance)

    def test_randomized_instances_count_the_same_rounds(self):
        rng = random.Random(0xF111)
        for _ in range(100):
            assert_same_outcome(*random_instance(rng))

    def test_demand_and_saturation_tie_in_one_round(self):
        # Round 1: level 2.0 meets flow 0's cap exactly as "a" and "b"
        # both reach 0.0; flow 3 is frozen at entry by "z".
        flows = [FlowSpec({"a": 1.0}, 2.0), FlowSpec({"a": 1.0, "b": 0.5}),
                 FlowSpec({"b": 1.5, "c": 1.0}, 2.0), FlowSpec({"z": 1.0}),
                 FlowSpec({"c": 1.0}, math.inf)]
        capacities = {"a": 4.0, "b": 4.0, "c": 64.0, "z": 0.0}
        assert_same_outcome(flows, capacities)
        assert max_min_fair_columnar(flows, capacities) \
            == [2.0, 2.0, 2.0, 0.0, 62.0]

    def test_flow_storm_shape(self):
        rng = random.Random(17)
        capacities = {r: 64.0 for r in range(1, 41)}
        flows = [FlowSpec({r: 1.0 / 40 for r in capacities}, 400.0)
                 for _ in range(3)]
        flows += [FlowSpec({r: 1.0 / 6 for r in rng.sample(range(1, 41), 6)},
                           rng.uniform(200.0, 2000.0)) for _ in range(30)]
        assert_same_outcome(flows, capacities)

    def test_empty_flows(self):
        assert max_min_fair_columnar([], {"s": 10.0}) == []

    def test_no_resources_capped_flow(self):
        flows = [FlowSpec(coefficients={"ghost": 1.0}, demand=5.0)]
        assert_bit_identical(max_min_fair_scalar(flows, {}),
                             max_min_fair_columnar(flows, {}))


class TestIdenticalErrors:
    @pytest.mark.parametrize("flows,capacities", [
        ([FlowSpec({"s": -1.0}, 1.0)], {"s": 10.0}),
        ([FlowSpec({"s": 1.0}, -2.0)], {"s": 10.0}),
        ([FlowSpec({"s": 1.0}, 1.0)], {"s": -5.0}),
        ([FlowSpec({"ghost": 1.0}, math.inf)], {"s": 10.0}),
    ])
    def test_same_exception_and_message(self, flows, capacities):
        with pytest.raises(ValueError) as scalar_err:
            max_min_fair_scalar(flows, capacities)
        with pytest.raises(ValueError) as columnar_err:
            max_min_fair_columnar(flows, capacities)
        assert str(scalar_err.value) == str(columnar_err.value)

    def test_first_offender_order_with_a_warm_cache(self):
        # A cached segment (a flow's frozen coefficients) skips
        # re-validating them; the flows after it must still be checked
        # in flow order, coefficients before demand within a flow.
        capacities = {"s": 10.0, "t": 10.0}
        valid = FlowSpec(FluidFlow("v", {"s": 1.0, "t": 2.0}).coefficients,
                         3.0)
        negative_demand = FlowSpec({"t": 1.0}, -2.0)
        bad_coefficient = FlowSpec({"t": -1.0}, 1.0)
        cache = ColumnCache()
        max_min_fair_columnar([valid], capacities, cache)
        for flows, message in [
            ([valid, negative_demand, bad_coefficient],
             "demand must be >= 0"),
            ([valid, bad_coefficient, negative_demand],
             "coefficient must be > 0 (resource 't')"),
        ]:
            assert outcome(max_min_fair_scalar, flows, capacities) \
                == (message, 0, 0)
            assert outcome(max_min_fair_columnar, flows, capacities,
                           cache) == (message, 0, 0)
        # A capacity error still comes after every flow error, and a
        # plain dict is recompiled every solve, so one gone bad in
        # place is validated afresh.
        assert_same_outcome([valid], {"s": -1.0, "t": 10.0}, cache)
        assert_same_outcome([valid, negative_demand],
                            {"s": -1.0, "t": 10.0}, cache)
        plain = FlowSpec({"s": 1.0, "t": 2.0}, 3.0)
        max_min_fair_columnar([valid, plain], capacities, cache)
        plain.coefficients["t"] = 0.0
        assert_same_outcome([valid, plain], capacities, cache)
        assert outcome(max_min_fair_columnar, [valid, plain], capacities,
                       cache) == ("coefficient must be > 0 (resource 't')",
                                  0, 0)


class TestDispatch:
    """``max_min_fair`` picks a backend by problem size alone."""

    @staticmethod
    def backends_called(flows, capacities):
        """Which backends one ``max_min_fair`` call reaches."""
        with mock.patch.object(bandwidth, "max_min_fair_scalar",
                               wraps=max_min_fair_scalar) as scalar, \
                mock.patch.object(columnar, "max_min_fair_columnar",
                                  wraps=max_min_fair_columnar) as col:
            rates = max_min_fair(flows, capacities)
        called = (["scalar"] * scalar.call_count
                  + ["columnar"] * col.call_count)
        return called, rates

    def test_cutover_is_by_cells(self):
        # flows x resources on either side of _AUTO_CUTOVER_CELLS.
        capacities = {i: 50.0 for i in range(64)}
        flow = FlowSpec({0: 1.0, 1: 1.0}, 10.0)
        below = bandwidth._AUTO_CUTOVER_CELLS // 64 - 1
        assert self.backends_called([flow] * below, capacities)[0] \
            == ["scalar"]
        assert self.backends_called([flow] * (below + 1), capacities)[0] \
            == ["columnar"]

    @pytest.mark.parametrize("mode", ["scalar", "columnar"])
    def test_forced_modes_agree(self, monkeypatch, mode):
        # Moving the cutover is how a test forces one backend.
        rng = random.Random(42)
        flows, capacities = random_instance(rng)
        reference = max_min_fair_scalar(flows, capacities)
        monkeypatch.setattr(bandwidth, "_AUTO_CUTOVER_CELLS",
                            math.inf if mode == "scalar" else 0)
        called, rates = self.backends_called(flows, capacities)
        assert called == [mode]
        assert_bit_identical(rates, reference)

    def test_auto_cutover_matches_scalar(self):
        # Large enough that the size rule dispatches columnar.
        rng = random.Random(3)
        capacities = {i: rng.uniform(10.0, 100.0) for i in range(256)}
        flows = [FlowSpec({r: 1.0 for r in rng.sample(range(256), 4)},
                          rng.uniform(1.0, 50.0)) for _ in range(32)]
        called, rates = self.backends_called(flows, capacities)
        assert called == ["columnar"]
        assert_bit_identical(rates, max_min_fair_scalar(flows, capacities))


class TestCompile:
    def test_unknown_resources_dropped(self):
        flows = [FlowSpec({"a": 1.0, "ghost": 2.0}, 5.0)]
        problem = compile_problem(flows, {"a": 10.0, "b": 20.0})
        assert problem.flow_idx.size == 1
        assert problem.n_flows == 1
        assert problem.n_resources == 2
        assert problem.resources == ("a", "b")

    def test_flow_major_entry_order(self):
        flows = [FlowSpec({"b": 1.0, "a": 2.0}, 5.0),
                 FlowSpec({"a": 3.0}, 1.0)]
        problem = compile_problem(flows, {"a": 10.0, "b": 20.0})
        assert problem.flow_idx.tolist() == [0, 0, 1]
        # Within a flow, entries keep the coefficient dict's order.
        assert problem.res_idx.tolist() == [1, 0, 0]
        assert problem.coef.tolist() == [1.0, 2.0, 3.0]
