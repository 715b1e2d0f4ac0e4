"""Client populations and the draw stream under them.

The populations' "randomness" is the hash family
``hash64(f"{seed}:{name}:…{ordinal}…")``; a :class:`DrawStream` evaluates
it a block at a time.  The oracle throughout is the scalar ``hash64`` of
the exact f-string the populations built before the stream existed.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashring.hashing as hashing_mod
import repro.serving.clients as clients_mod
from repro.hashring.hashing import hash64
from repro.serving import run_serve
from repro.serving.clients import (
    _BLOCK_DRAWS,
    ClosedLoopPopulation,
    Draw,
    DrawStream,
    OpenLoopPopulation,
)
from repro.serving.coordinator import Request
from repro.simulation.engine import Simulator


def unit(key: str) -> float:
    """The parent's ``_unit(key)``."""
    return (hash64(key) + 0.5) / 2.0 ** 64


# ----------------------------------------------------------------------
# stream vs scalar
# ----------------------------------------------------------------------
_names = st.sampled_from(["open", "closed", "c2", "é"])
_suffixes = st.sampled_from(["", ":rw", ":oid", ":replica", ":retry"])


def _ordinals(width: int):
    """Ordinals weighted towards both sides of the block boundaries."""
    edges = [k * width + d for k in (1, 2, 5) for d in (-1, 0, 1)]
    return st.one_of(st.sampled_from([0, 9, 10, 99, 100] + edges),
                     st.integers(0, 6 * width))


@st.composite
def _closed_reads(draw):
    clients = draw(st.sampled_from([1, 3, 7, 200, 5000]))
    width = max(1, _BLOCK_DRAWS // clients)
    reads = draw(st.lists(
        st.tuples(st.integers(0, clients - 1), _ordinals(width), _suffixes),
        min_size=1, max_size=30))
    return clients, reads


class TestStreamAgainstScalarHash:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), _names,
           st.lists(st.tuples(_ordinals(_BLOCK_DRAWS), _suffixes),
                    min_size=1, max_size=30))
    def test_open_loop_family(self, seed, name, reads):
        keys = DrawStream(f"{seed}:{name}:")
        gaps = DrawStream(f"{seed}:{name}:gap:")
        for n, suffix in reads:
            key = f"{seed}:{name}:{n}"
            assert keys.hash(suffix, n) == hash64(key + suffix)
            assert keys.unit(suffix, n) == unit(key + suffix)
            assert Draw(keys, n).hash(suffix) == hash64(key + suffix)
            assert Draw(keys, n).unit(suffix) == unit(key + suffix)
            assert gaps.unit("", n) == unit(f"{seed}:{name}:gap:{n}")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), _names, _closed_reads())
    def test_closed_loop_family_in_any_row_order(self, seed, name, case):
        clients, reads = case
        keys = DrawStream(f"{seed}:{name}:", clients)
        thinks = DrawStream(f"{seed}:{name}:think:", clients)
        for c, n, suffix in reads:
            key = f"{seed}:{name}:{c}:{n}"
            assert keys.hash(suffix, n, c) == hash64(key + suffix)
            assert Draw(keys, n, c).unit(suffix) == unit(key + suffix)
            assert thinks.unit("", n, c) == unit(
                f"{seed}:{name}:think:{c}:{n}")

    def test_values_are_python_ints_held_as_uint64_blocks(self):
        stream = DrawStream("7:open:")
        value = stream.hash(":rw", 5)
        assert type(value) is int and type(stream.unit(":rw", 5)) is float
        ((block,),) = stream._blocks.values()
        assert block.dtype == "uint64" and block.shape == (1, _BLOCK_DRAWS)
        stream.hash(":rw", 6)                     # same block, no new fill
        stream.hash(":rw", _BLOCK_DRAWS)          # next block
        stream.hash(":oid", 5)                    # lazily per suffix
        assert {suffix: len(blocks) for suffix, blocks
                in stream._blocks.items()} == {":oid": 1, ":rw": 2}
        assert stream._blocks[":rw"][0] is block

    def test_blocks_fill_in_order_from_ordinal_zero(self):
        stream = DrawStream("7:open:")
        assert stream.hash(":retry", 2 * _BLOCK_DRAWS + 1) == hash64(
            f"7:open:{2 * _BLOCK_DRAWS + 1}:retry")
        assert len(stream._blocks[":retry"]) == 3

    @pytest.mark.parametrize("order", ["forward", "backward", "strided"])
    @pytest.mark.parametrize("rows", [None, 1, 3, 2 * _BLOCK_DRAWS])
    def test_any_read_order_reads_the_scalar_values(self, rows, order):
        """Reads on both sides of three block boundaries, in any order,
        give the scalar hash; the suffix's blocks end up filled from
        ordinal 0 through the last block read, each exactly once."""
        stream = DrawStream("5:mix:", rows)
        width = max(1, _BLOCK_DRAWS // (rows or 1))
        last = 0 if rows is None else rows - 1
        reads = [(row, n) for n in (0, 1, width - 1, width, width + 1,
                                    2 * width, 3 * width - 1)
                 for row in sorted({0, last})]
        if order == "backward":
            reads.reverse()
        elif order == "strided":
            reads = reads[1::2] + reads[::2]
        fills = []
        fill = stream._fill

        def counted(suffix, b):
            fills.append(b)
            return fill(suffix, b)

        stream._fill = counted
        for row, n in reads:
            key = f"5:mix:{n}" if rows is None else f"5:mix:{row}:{n}"
            assert stream.hash(":rw", n, row) == hash64(key + ":rw")
        assert len(stream._blocks[":rw"]) == 3
        # A miss fills every block up to the one read: the backward
        # walk's first read fills all three at once.
        assert fills == ([2] if order == "backward" else [0, 1, 2])

    def test_more_rows_than_a_block_holds(self):
        stream = DrawStream("3:big:", 2 * _BLOCK_DRAWS)
        row = 2 * _BLOCK_DRAWS - 1
        assert stream.hash(":rw", 2, row) == hash64(f"3:big:{row}:2:rw")
        assert [block.shape for block in stream._blocks[":rw"]] == [
            (2 * _BLOCK_DRAWS, 1)] * 3


# ----------------------------------------------------------------------
# populations, against a front door the test drives by hand
# ----------------------------------------------------------------------
class Door:
    """Stands in for the coordinator: admits (and remembers) every
    request, or rejects while ``rejecting`` is set."""

    def __init__(self):
        self.admitted = []
        self.rejecting = False

    def enqueue(self, req):
        if self.rejecting:
            req.on_reject(req)
            return False
        self.admitted.append(req)
        return True


def make_factory(sim, issued):
    def factory(pop, rid, key):
        issued.append((sim.now, rid, key))
        return Request(rid=rid, pop=pop, oid=1, is_write=False, server=1,
                       nbytes=1.0, t_enqueue=sim.now)
    return factory


class TestClosedLoop:
    SEED = 5

    @pytest.fixture(autouse=True)
    def slow_thinkers(self, monkeypatch):
        """Think twice as long as the product does, so a think is told
        apart from the first-issue stagger."""
        monkeypatch.setattr(clients_mod, "THINK_TIME", 2.0)
        return monkeypatch

    def build(self, clients=3):
        sim, door, issued = Simulator(), Door(), []
        pop = ClosedLoopPopulation(
            sim, door, make_factory(sim, issued), clients=clients,
            seed=self.SEED)
        return sim, door, issued, pop

    def test_start_staggers_first_issues_over_one_think_time(self):
        sim, door, issued, pop = self.build(clients=4)
        pop.start()
        sim.run_until(2.0)
        assert sorted(t for t, _, _ in issued) == sorted(
            2.0 * unit(f"5:closed:first:{c}") for c in range(4))
        assert len(door.admitted) == 4

    def test_completion_thinks_then_reissues_with_a_new_ordinal(self):
        sim, door, issued, pop = self.build(clients=1)
        pop.start()
        sim.run_until(2.0)
        (first,) = door.admitted
        assert issued[0][2].hash(":oid") == hash64("5:closed:0:0:oid")
        first.on_complete(first, sim.now)
        think = 2.0 * (0.5 + unit("5:closed:think:0:1"))
        assert 1.0 <= think < 3.0
        sim.run_until(2.0 + think)
        assert len(issued) == 2
        t, rid, key = issued[1]
        assert t == 2.0 + think and rid == 1
        assert key.hash(":oid") == hash64("5:closed:0:1:oid")
        assert key.unit(":rw") == unit("5:closed:0:1:rw")

    def test_factory_on_complete_still_runs_before_the_think(
            self, slow_thinkers):
        slow_thinkers.setattr(clients_mod, "THINK_TIME", 1.0)
        sim, door, seen = Simulator(), Door(), []

        def factory(pop, rid, key):
            return Request(rid=rid, pop=pop, oid=1, is_write=True, server=1,
                           nbytes=1.0, t_enqueue=sim.now,
                           on_complete=lambda r, t: seen.append((r.rid, t)))

        pop = ClosedLoopPopulation(sim, door, factory, clients=1,
                                   seed=self.SEED)
        pop.start()
        sim.run_until(1.0)
        door.admitted[0].on_complete(door.admitted[0], 1.0)
        assert seen == [(0, 1.0)]

    def test_reject_retries_as_a_fresh_request_after_jittered_backoff(
            self, slow_thinkers):
        slow_thinkers.setattr(clients_mod, "RETRY_DELAY", 0.4)
        sim, door, issued, pop = self.build(clients=2)
        door.rejecting = True
        pop.start()
        sim.run_until(2.0)                    # both first issues bounced
        assert pop.retries >= 2 and door.admitted == []
        by_client = {}
        for t, rid, key in issued:
            by_client.setdefault(key._row, []).append((t, key._n))
        for c, tries in by_client.items():
            assert [n for _, n in tries] == list(range(len(tries)))
            for (t0, n), (t1, _) in zip(tries, tries[1:]):
                backoff = 0.4 * (0.5 + unit(f"5:closed:{c}:{n}:retry"))
                assert 0.2 <= backoff < 0.6
                assert t1 == t0 + backoff
        door.rejecting = False
        sim.run_until(3.0)
        assert len(door.admitted) == 2        # the retries got in

class TestOpenLoop:
    def run(self, until, horizon, users=10, per_user_rate=0.5, seed=9):
        sim, door, issued = Simulator(), Door(), []
        pop = OpenLoopPopulation(
            sim, door, make_factory(sim, issued), users=users,
            per_user_rate=per_user_rate, seed=seed, until=until)
        pop.start()
        sim.run_until(horizon)
        return sim, pop, issued

    def test_arrivals_follow_the_exponential_gap_stream(self):
        _, pop, issued = self.run(until=None, horizon=60.0)
        assert pop.arrivals == len(issued) > 200
        t, expected = 0.0, []
        for n in range(len(issued)):
            gap = -math.log(unit(f"9:open:gap:{n}")) / 5.0
            assert gap > 0.0
            t += gap
            expected.append(t)
        assert [at for at, _, _ in issued] == expected
        assert [rid for _, rid, _ in issued] == list(range(len(issued)))
        for n in (0, 1, len(issued) - 1):
            assert issued[n][2].hash(":oid") == hash64(f"9:open:{n}:oid")

    def test_chain_stops_at_until(self):
        sim, pop, issued = self.run(until=20.0, horizon=80.0)
        assert issued and all(t < 20.0 for t, _, _ in issued)
        assert sim.pending == 0               # nothing left scheduled

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -2.0])
    def test_bad_rate_rejected(self, rate):
        # inf made every gap 0.0: the chain rescheduled itself at one
        # instant forever.
        with pytest.raises(ValueError, match="per_user_rate must be > 0 "
                                             "and finite"):
            OpenLoopPopulation(Simulator(), Door(), None, users=1,
                               per_user_rate=rate, seed=1)


# ----------------------------------------------------------------------
# the product takes its per-request draws from blocks, never hash64
# ----------------------------------------------------------------------
@pytest.fixture
def str_hashes(monkeypatch):
    """The ``str`` keys ``hash64`` is called with: every ``repro.*``
    module attribute bound to it is counted, however it was imported."""
    keys = []
    real = hashing_mod.hash64

    def counted(key, *args, **kwargs):
        if isinstance(key, str):
            keys.append(key)
        return real(key, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counted)
    return keys


def test_run_serve_hashes_strings_per_client_not_per_request(str_hashes):
    r = run_serve(seed=11, n=6, off_count=2, clients=40, users=400_000,
                  duration=30.0, resize_at=10.0, resize_back_at=20.0,
                  check=False)
    requests = sum(r.enqueued.values()) + sum(r.rejected.values())
    assert requests > 1_000 and r.failovers > 0
    # Every serving draw is keyed "<seed>:…"; what else the stack
    # hashes ("rank-1", the catalog's "oid:N") is not serving's.
    draws = [k for k in str_hashes if k.startswith("11:")]
    stagger = [k for k in draws if ":first:" in k]
    failover = [k for k in draws if ":failover:" in k]
    assert len(stagger) == 40
    assert 0 < len(failover) <= r.failovers
    assert len(draws) == len(stagger) + len(failover)
