"""run_serve: determinism, flow-control outcomes, SLO verdicts.

The configs here are deliberately small (tens of seconds, tens of
clients) so the whole file runs in a few seconds;
``tests/test_goldens.py`` exercises the full default scale.
"""

import hashlib
import io

import pytest

import repro.serving.clients as clients_mod
from repro.obs.runtime import OBS
from repro.obs.trace import JSONLSink
from repro.serving import render_serve_report, run_serve

#: Small but genuinely contended: 6 servers with 2 off leaves little
#: headroom, so the resize window pressures the queues.
SMALL = dict(seed=11, n=6, off_count=2, clients=40, users=400_000,
             duration=30.0, resize_at=10.0, resize_back_at=20.0)

#: Overloaded during the shrink window: enough open-loop arrival rate
#: that an unenforced bound is guaranteed to blow through.
OVERLOAD = dict(seed=7, n=6, off_count=3, clients=120, users=2_500_000,
                duration=40.0, resize_at=10.0, resize_back_at=30.0)


def traced_digest(**kwargs):
    OBS.reset()
    buf = io.StringIO()
    sink = JSONLSink(buf)
    OBS.bus.attach(sink)
    try:
        run_serve(**kwargs)
    finally:
        OBS.bus.detach(sink)
        OBS.reset()
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestDeterminism:
    def test_same_seed_traces_byte_identical(self):
        a = traced_digest(controller="adaptive", **SMALL)
        b = traced_digest(controller="adaptive", **SMALL)
        assert a == b

    def test_seed_changes_the_trace(self):
        base = dict(SMALL)
        base.pop("seed")
        a = traced_digest(seed=11, **base)
        b = traced_digest(seed=12, **base)
        assert a != b

    def test_closed_loop_only_byte_identical(self):
        # users=1 at a vanishing rate: the first open-loop arrival
        # lands far past the horizon, leaving pure closed-loop load.
        cfg = dict(SMALL, users=1, per_user_rate=1e-12)
        assert (traced_digest(controller="adaptive", **cfg)
                == traced_digest(controller="adaptive", **cfg))

    def test_open_loop_only_byte_identical(self, monkeypatch):
        # One client thinking for 1e6 s: pure open-loop load.
        monkeypatch.setattr(clients_mod, "THINK_TIME", 1e6)
        cfg = dict(SMALL, clients=1)
        assert (traced_digest(controller="adaptive", **cfg)
                == traced_digest(controller="adaptive", **cfg))


class TestFlowControlOutcomes:
    @pytest.fixture(scope="class")
    def overloaded(self):
        OBS.reset()
        out = {ctrl: run_serve(controller=ctrl, **OVERLOAD)
               for ctrl in ("unthrottled", "adaptive", "fixed")}
        OBS.reset()
        return out

    def test_unthrottled_blows_its_declared_bound(self, overloaded):
        r = overloaded["unthrottled"]
        assert not r.bounded
        assert r.max_queue_depth > r.queue_bound
        assert any("serve-queue-bounded" in v for v in r.violations)
        assert not r.ok

    def test_adaptive_keeps_the_bound_checker_green(self, overloaded):
        r = overloaded["adaptive"]
        assert r.bounded
        assert not any("serve-queue-bounded" in v for v in r.violations)

    def test_fixed_keeps_the_bound(self, overloaded):
        assert overloaded["fixed"].bounded

    def test_adaptive_slows_closed_loop_instead_of_shedding(
            self, overloaded):
        # Backpressure substitutes delay for rejection: the adaptive
        # policy sheds less than the fixed limit at the same bound.
        rej_adaptive = sum(overloaded["adaptive"].rejected.values())
        rej_fixed = sum(overloaded["fixed"].rejected.values())
        assert rej_adaptive < rej_fixed

    def test_latency_surfaced_per_population_and_pooled(self, overloaded):
        r = overloaded["adaptive"]
        for pop in ("closed", "open", "overall"):
            stats = r.latency[pop]
            assert stats["count"] > 0
            assert 0.0 < stats["p50"] <= stats["p99"] <= stats["p999"]


class TestMintedOids:
    @pytest.mark.parametrize("block", [4096, 64])
    def test_every_fresh_oid_is_prehashed(self, block, monkeypatch):
        """Minted oids are hashed a block at a time as the counter
        enters each block (a small block crosses dozens), so no
        placement takes the scalar successor — and nothing else
        moves."""
        import repro.serving.harness as harness_mod
        from repro.hashring.ring import HashRing

        cfg = dict(SMALL, write_ratio=0.9)
        OBS.reset()
        before = run_serve(**cfg)
        calls = []
        real = HashRing.successor_slot
        monkeypatch.setattr(HashRing, "successor_slot",
                            lambda ring, pos: calls.append(pos)
                            or real(ring, pos))
        monkeypatch.setattr(harness_mod, "PREHASH_BLOCK", block)
        OBS.reset()
        after = run_serve(**cfg)
        OBS.reset()
        assert sum(after.completed.values()) > 10 * 64
        assert calls == [] and after == before


class TestReportAndVerdicts:
    def test_report_sections(self):
        OBS.reset()
        r = run_serve(controller="adaptive", **SMALL)
        OBS.reset()
        text = render_serve_report(r)
        for needle in ("# serve report", "client-perceived latency",
                       "flow control", "invariants", "outcome",
                       "p999"):
            assert needle in text

    def test_missed_slo_flips_verdict(self):
        OBS.reset()
        r = run_serve(controller="adaptive", slo_p99=1e-9, **SMALL)
        OBS.reset()
        assert r.slo_met is False and not r.ok
        assert "MISSED" in render_serve_report(r)

    def test_migration_competes_during_resize_back(self):
        OBS.reset()
        r = run_serve(controller="adaptive", **SMALL)
        OBS.reset()
        assert r.migration_bytes > 0
        # ... and finishes before the cutoff: nothing to report.
        assert r.migration_unfinished_bytes == 0.0
        assert "unfinished" not in render_serve_report(r)

    def test_migration_live_at_cutoff_is_cancelled_not_a_violation(self):
        # The resize-back lands two seconds before the cutoff with a
        # write-heavy backlog: the re-integration flow cannot finish.
        # It is retired like the serve streams (flow.cancel), so
        # flow-accounting stays green, and the report says what was
        # left.
        OBS.reset()
        with OBS.bus.capture(capacity=200_000) as sink:
            r = run_serve(controller="adaptive", write_ratio=0.9,
                          **dict(SMALL, resize_back_at=28.0))
            cancels = [e for e in sink.events("flow.cancel")
                       if e["name"] == "migration"]
        OBS.reset()
        assert r.violations == [] and r.ok
        assert len(cancels) == 1
        assert r.migration_unfinished_bytes > 0
        assert cancels[0]["nbytes"] == pytest.approx(r.migration_bytes)
        assert "migration unfinished at cutoff" in render_serve_report(r)

    @pytest.mark.parametrize("kwargs", [
        {"off_count": 6},                     # nothing left
        {"off_count": 5},                     # cannot hold replicas
        {"resize_at": 25.0},                  # after resize_back_at
        {"write_ratio": 1.5},
        {"duration": float("inf")},           # was OverflowError
        {"duration": float("nan")},
        {"slo_p99": float("nan")},            # was "MISSED (p99 > nans)"
        {"slo_p99": float("inf")},
        {"slo_p99": 0.0},
        {"per_user_rate": float("inf")},      # was: never returned
        {"per_user_rate": float("nan")},
        {"per_user_rate": 0.0},
        {"clients": 0},
        {"users": 0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        cfg = dict(SMALL, n=6)
        cfg.update(kwargs)
        with pytest.raises(ValueError):
            run_serve(**cfg)

    def test_bad_rate_is_rejected_before_the_cluster_is_built(
            self, monkeypatch):
        import repro.serving.harness as harness_mod

        def no_cluster(*args, **kwargs):
            raise AssertionError("cluster built for a run that cannot start")

        monkeypatch.setattr(harness_mod, "ElasticCluster", no_cluster)
        with pytest.raises(ValueError, match=r"per_user_rate must be > 0 "
                                             r"and finite \(got inf\)"):
            run_serve(**dict(SMALL, per_user_rate=float("inf")))
