"""Generated equivalence test for the cluster runtime's capacity token.

Two :class:`~repro.cluster.runtime.ClusterRuntime`\\ s over identical
clusters are driven through the same arbitrary interleaving of
everything a harness does between ticks — writes, resizes, crashes and
repairs (or, for the original-CH baseline, servers leaving and joining
the ring), slow-disk windows opening and closing, a §V-A client flow
started, re-pointed and retired, selective re-integration — and ticked
in lockstep.  One side is the runtime as shipped: its ``IOModel``
trusts ``capacity_token()`` to say when the capacities moved.  The
other side's model has no token and rebuilds and compares the capacity
dict on every tick, so it can never miss a change.  After every step
both must have emitted the same events and recorded the same samples,
the clusters must pass fsck and the membership token must not have
gone backwards; the product
side's events feed a live ``CheckerSink`` that must be clean at
teardown.

Two seeded mutants show the machine has teeth — a runtime token that
leaves out ``injector.generation`` and an original-CH cluster whose
``membership_token`` never moves — each killed by the machine and
pinned by a regression small enough to read.
"""

import inspect
import textwrap

import pytest
from hypothesis import Phase as HypothesisPhase
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cluster import runtime
from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.cluster.fsck import check_cluster, check_holder_index
from repro.cluster.runtime import ClusterRuntime, ThreePhaseLoad
from repro.experiments import run_three_phase
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.invariants import CheckerSink
from repro.obs.runtime import OBS
from repro.simulation.engine import Simulator
from repro.simulation.iomodel import IOModel
from repro.workloads.three_phase import Phase

N = 6
DT = 1.0
DISK = 100.0                   # bytes/s: small numbers read better
OBJ = 40                       # bytes per client object
RANKS = st.integers(min_value=1, max_value=N)
#: The fault plan both sides arm: slow-disk windows that open and
#: close, on the simulator's clock, while the rules below run.
WINDOWS = st.lists(
    st.builds(FaultEvent, kind=st.just("slow_disk"), rank=RANKS,
              time=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 6.0, 9.0]),
              duration=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
              factor=st.sampled_from([0.0, 0.25, 0.5])),
    max_size=5)
#: Long enough to outlive most runs, short enough that some drain.
#: Span ids come from one process-wide counter, so the two sides never
#: share them; everything else in an event must match.
_PER_SIDE_FIELDS = ("span_id", "parent_id")
PHASES = [Phase("phase1", total_bytes=2_000.0, write_ratio=1.0),
          Phase("phase2", total_bytes=600.0, write_ratio=0.5,
                rate_cap=50.0),
          Phase("phase3", total_bytes=4_000.0, write_ratio=0.2)]


def elastic():
    return ElasticCluster(N, replicas=2, B=600, disk_bandwidth=DISK)


def original(cls=OriginalCHCluster):
    return cls(N, replicas=2, vnodes_per_server=40, disk_bandwidth=DISK)


class Side:
    """One cluster, its runtime and the §V-A client loading it."""

    def __init__(self, cluster, windows, runtime_cls=ClusterRuntime,
                 token=True):
        self.cluster = cluster
        self.sim = Simulator()
        self.injector = FaultInjector(FaultPlan(events=list(windows)))
        self.injector.arm(self.sim, lambda action: None)
        self.rt = runtime_cls(cluster, DT, sim=self.sim,
                              injector=self.injector)
        if not token:
            self.rt.io.capacity_token = None    # dict-compare path
        self.load = ThreePhaseLoad(self.rt, PHASES, client_cap=400.0,
                                   object_size=OBJ, probe_objects=300)
        self.now = 0.0
        self.next_oid = 1_000   # clear of the client's 1, 2, 3, ...

    def tick(self):
        """What every harness loop does, in its order."""
        self.now += DT
        self.sim.run_until(self.now)        # windows open and close
        self.rt.io.step(self.now)
        self.load.materialise_writes()
        if self.load.phase_done:
            self.load.finish_phase(self.now)
            self.load.advance()

    def retire_flows(self):
        for flow in list(self.rt.io.flows):
            self.rt.io.flows.remove(flow)
        self.load.flow = None


class RuntimeMachine(RuleBasedStateMachine):
    """Rules both cluster flavours share; ``self.sides`` is
    ``(product, reference)``."""

    #: What the product side is built from (the mutants swap these).
    RUNTIME = ClusterRuntime
    make_cluster = staticmethod(elastic)
    make_product_cluster = None          # default: make_cluster

    @initialize(windows=WINDOWS)
    def build(self, windows):
        OBS.reset()
        product = (self.make_product_cluster or self.make_cluster)()
        self.product = Side(product, windows, self.RUNTIME)
        self.reference = Side(self.make_cluster(), windows, token=False)
        self.sides = (self.product, self.reference)
        self.checker = CheckerSink()
        self.last_token = product.membership_token

    def teardown(self):
        if hasattr(self, "sides"):
            self.both(Side.retire_flows)    # closes flow accounting
            violations = self.checker.finish()
            assert not violations, [v.describe() for v in violations]
        OBS.reset()

    def both(self, op):
        """Apply *op* to each side in turn; the two applications must
        emit the same events.  Only the product's reach the live
        checkers (two clusters on one bus are not one coherent
        stream)."""
        emitted = []
        for side in self.sides:
            if side is self.product:
                OBS.bus.attach(self.checker)
            try:
                with OBS.bus.capture(capacity=100_000) as sink:
                    op(side)
                    emitted.append([
                        {k: v for k, v in e.items()
                         if k not in _PER_SIDE_FIELDS}
                        for e in sink.events()])
            finally:
                if side is self.product:
                    OBS.bus.detach(self.checker)
        assert emitted[0] == emitted[1]

    # -- data ----------------------------------------------------------
    @rule(count=st.integers(min_value=1, max_value=4))
    def write(self, count):
        def write(side):
            for _ in range(count):
                side.cluster.write(side.next_oid, OBJ)
                side.next_oid += 1
        self.both(write)

    # -- the client flow -----------------------------------------------
    @precondition(lambda self: self.product.load.flow is None)
    @rule()
    def start_client(self):
        self.both(lambda side: side.load.start())

    @rule()
    def refresh_client(self):
        self.both(lambda side: side.load.refresh())

    @precondition(lambda self: self.product.load.flow is not None)
    @rule()
    def retire_client(self):
        self.both(Side.retire_flows)

    # -- time ----------------------------------------------------------
    @rule(ticks=st.integers(min_value=1, max_value=4))
    def tick(self, ticks):
        def tick(side):
            for _ in range(ticks):
                side.tick()
        self.both(tick)

    # -- the comparison ------------------------------------------------
    @invariant()
    def same_samples(self):
        if not hasattr(self, "sides"):
            return
        assert self.product.rt.io.samples == self.reference.rt.io.samples
        assert (self.product.load.phase_ends, self.product.load.written) \
            == (self.reference.load.phase_ends, self.reference.load.written)

    @invariant()
    def membership_token_is_monotone(self):
        if not hasattr(self, "sides"):
            return
        token = self.product.cluster.membership_token
        assert token >= self.last_token
        self.last_token = token


class ElasticRuntimeMachine(RuntimeMachine):
    @rule(k=st.integers(min_value=2, max_value=N))   # >= r, as the
    def resize(self, k):                              # harnesses insist
        self.both(lambda side: side.cluster.resize(k))

    @precondition(lambda self: not self.product.cluster.ech.failed
                  # §III-B's operating assumption, as in
                  # tests/property/test_cluster_stateful.py.
                  and self.product.cluster.num_active > 2)
    @rule(rank=st.integers(min_value=2, max_value=N))
    def crash(self, rank):
        if rank in self.product.cluster.active_ranks():
            self.both(lambda side: side.cluster.fail_server(rank))

    @precondition(lambda self: self.product.cluster.ech.failed)
    @rule(back_on=st.booleans())
    def repair(self, back_on):
        (rank,) = self.product.cluster.ech.failed

        def repair(side):
            side.cluster.repair_server(rank)
            if back_on:
                side.cluster.resize(N)
        self.both(repair)

    @rule(rate_cap=st.sampled_from([30.0, 80.0]))
    def reintegrate(self, rate_cap):
        self.both(lambda side: side.rt.reintegrate_selective(rate_cap))

    @invariant()
    def fsck_clean(self):
        for side in getattr(self, "sides", ()):
            report = check_cluster(side.cluster)
            assert report.clean, report.summary()


class OriginalRuntimeMachine(RuntimeMachine):
    make_cluster = staticmethod(original)

    @precondition(lambda self: self.product.cluster.num_active > 2)
    @rule(data=st.data())
    def remove_server(self, data):
        rank = data.draw(st.sampled_from(
            self.product.cluster.active_ranks()))
        self.both(lambda side: side.cluster.remove_server(rank))

    @precondition(lambda self: self.product.cluster.num_active < N)
    @rule(data=st.data())
    def add_server(self, data):
        cluster = self.product.cluster
        rank = data.draw(st.sampled_from(
            sorted(set(cluster.servers) - set(cluster.active_ranks()))))
        self.both(lambda side: side.cluster.add_server(rank))

    @invariant()
    def fsck_clean(self):
        for side in getattr(self, "sides", ()):
            assert check_holder_index(side.cluster) == []
            assert side.cluster.verify_replication() == []


MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40,
                            deadline=None)
TestElasticRuntimeMachine = ElasticRuntimeMachine.TestCase
TestOriginalRuntimeMachine = OriginalRuntimeMachine.TestCase
TestElasticRuntimeMachine.settings = MACHINE_SETTINGS
TestOriginalRuntimeMachine.settings = MACHINE_SETTINGS


# ----------------------------------------------------------------------
# seeded mutants
# ----------------------------------------------------------------------
def _token_forgets_injector():
    """``ClusterRuntime`` whose token is the membership token alone —
    the product's own method with the injector term taken out of its
    source, so the mutant cannot drift from the product."""
    source = textwrap.dedent(inspect.getsource(ClusterRuntime.capacity_token))
    old = ("return (self.cluster.membership_token, "
           "self.injector.generation)")
    assert source.count(old) == 1, "capacity_token no longer joins the two"
    namespace = {}
    exec(compile(source.replace(old, "return self.cluster.membership_token"),
                 "<mutant TokenForgetsInjector>", "exec"),
         vars(runtime), namespace)
    return type("TokenForgetsInjector", (ClusterRuntime,),
                {"capacity_token": namespace["capacity_token"]})


TokenForgetsInjector = _token_forgets_injector()


class ConstantRingToken(OriginalCHCluster):
    """Original CH claiming its member set never changes."""
    membership_token = 0


class ForgetfulElasticMachine(ElasticRuntimeMachine):
    RUNTIME = TokenForgetsInjector


class ConstantTokenMachine(OriginalRuntimeMachine):
    make_product_cluster = staticmethod(lambda: original(ConstantRingToken))


@pytest.mark.parametrize("machine", [ForgetfulElasticMachine,
                                     ConstantTokenMachine])
def test_machine_kills_the_mutant(machine):
    # Generate only: the first counterexample is the kill, shrinking
    # it is the regressions' job.
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=settings(
            max_examples=300, stateful_step_count=30, deadline=None,
            derandomize=True, database=None, report_multiple_bugs=False,
            phases=[HypothesisPhase.generate]))


def samples_of(side, scenario):
    scenario(side)
    return side.rt.io.samples


def window_opens_under_a_steady_client(side):
    """Nothing about the flows or the membership changes between the
    two ticks — only rank 1's disk, a quarter as fast from t=1.5."""
    side.load.start()
    side.tick()
    side.tick()


def bottleneck_leaves_under_a_steady_client(side):
    """The busiest server leaves the ring and nobody re-points the
    client: its load on the departed server no longer counts."""
    side.load.start()
    side.tick()
    busiest = max(side.load.flow.coefficients,
                  key=side.load.flow.coefficients.get)
    side.cluster.remove_server(busiest)
    side.tick()


SLOW_RANK_1 = [FaultEvent(kind="slow_disk", rank=1, time=1.5, duration=5.0,
                          factor=0.25)]


def test_regression_token_must_carry_the_injector_generation():
    scenario = window_opens_under_a_steady_client
    product, reference, mutant = (
        samples_of(Side(elastic(), SLOW_RANK_1, **kwargs), scenario)
        for kwargs in ({}, {"token": False},
                       {"runtime_cls": TokenForgetsInjector}))
    assert product == reference
    (_, before), (_, after) = product
    assert after["client"] < before["client"]      # the window bites
    assert mutant[1] == (2.0, before)              # ... and is missed
    assert mutant != reference


def test_regression_original_ch_token_must_follow_the_ring():
    scenario = bottleneck_leaves_under_a_steady_client
    product, reference, mutant = (
        samples_of(Side(cluster, [], token=token), scenario)
        for cluster, token in ((original(), True), (original(), False),
                               (original(ConstantRingToken), True)))
    assert product == reference
    (_, before), (_, after) = product
    assert after["client"] > before["client"]
    assert mutant[1] == (2.0, before)
    assert mutant != reference


# ----------------------------------------------------------------------
# the harness that used to run without a token
# ----------------------------------------------------------------------
def test_original_mode_samples_same_with_ring_token_as_with_fallback(
        monkeypatch):
    """``run_three_phase("original")`` had no capacity token (the
    dict-compare fallback); it now runs on ``ring.generation``."""
    made = []

    class Recording(IOModel):
        keep_token = True

        def __init__(self, capacity_fn, dt, capacity_token=None):
            super().__init__(capacity_fn, dt,
                             capacity_token if self.keep_token else None)
            made.append(self)

    monkeypatch.setattr(runtime, "IOModel", Recording)
    with_token = run_three_phase("original", scale=0.02)
    Recording.keep_token = False
    fallback = run_three_phase("original", scale=0.02)
    tokened, untokened = made
    assert tokened.capacity_token is not None
    assert untokened.capacity_token is None
    assert tokened.samples == untokened.samples
    assert with_token == fallback and with_token.finished
