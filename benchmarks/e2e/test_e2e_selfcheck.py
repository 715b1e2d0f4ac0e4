"""Self-check of the benchmark's own machinery (not tier-1; run it
explicitly):

    python3 -m pytest benchmarks/e2e/test_e2e_selfcheck.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for _p in (REPO / "src", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import run as bench_run                                   # noqa: E402
from metrics import E2E, PER_LAYER                        # noqa: E402
from tracing import LAYERS, TARGETS, Recorder, Shims      # noqa: E402
from workloads import QUICK_SIZES, SIZES, WORKLOADS       # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# recorder arithmetic
# ----------------------------------------------------------------------
def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer 0..10 holds inner 2..5 and inner 6..7: self 6, children 4.
    rec = Recorder(clock=_fake_clock([0, 2, 5, 6, 7, 10]))
    inner = rec.wrap(lambda: None, "core.inner")

    def outer():
        inner()
        inner()

    rec.run("harness.run", outer)
    assert rec.agg["harness.run"][:3] == [1, 10, 6]
    assert rec.agg["core.inner"][:3] == [2, 4, 4]
    assert rec.self_s("core") == 4 and rec.calls("core") == 2
    assert not rec.stack
    (root,) = rec.spans["harness.run"]
    assert [s[1] for s in rec.spans["core.inner"]] == [root[0], root[0]]


def test_units_and_span_cap():
    rec = Recorder(clock=_fake_clock(range(10_000)))
    rec.MAX_SPANS = 3
    bulk = rec.wrap(lambda n: [0] * n, "hashring.bulk_hash", units_of=len)
    for n in (4, 5, 6, 7):
        bulk(n)
    assert rec.units("hashring.bulk_hash") == 22
    assert rec.calls("hashring.bulk_hash") == 4
    assert len(rec.spans["hashring.bulk_hash"]) == 3


def test_exception_propagates_and_closes_span():
    rec = Recorder()

    def boom():
        raise LookupError("ring is empty")

    with pytest.raises(LookupError):
        rec.run("harness.run", rec.wrap(boom, "core.locate"))
    assert not rec.stack
    assert rec.agg["core.locate"][0] == 1
    assert rec.agg["harness.run"][0] == 1


def test_host_slowdown_is_relative_to_the_nominal_probe():
    from hostspeed import REF_NOMINAL_S, probe, slowdown
    assert slowdown(REF_NOMINAL_S, REF_NOMINAL_S) == 1.0
    assert slowdown(REF_NOMINAL_S, 2 * REF_NOMINAL_S) == pytest.approx(1.5)
    # A live probe is within an order of magnitude of nominal anywhere.
    assert 0.1 < slowdown(probe(), probe()) < 10.0


# ----------------------------------------------------------------------
# shim hygiene
# ----------------------------------------------------------------------
def test_functions_imported_by_name_are_rebound_and_restored():
    import repro.hashring.hashing as hashing
    import repro.hashring.ring as ring
    import repro.serving.clients as clients
    import repro.serving.harness as serve_harness
    import repro.simulation.bandwidth as bandwidth
    import repro.simulation.flows as flows
    from repro.core.elastic import ElasticConsistentHash
    from repro.simulation.engine import Simulator

    hash64, solve = hashing.hash64, bandwidth.max_min_fair
    locate = vars(ElasticConsistentHash)["locate"]
    schedule_at = vars(Simulator)["schedule_at"]
    holders = [hashing, ring, clients, serve_harness]

    shims = Shims(Recorder())
    shims.install()
    try:
        for mod in holders:
            assert mod.hash64 is not hash64, mod.__name__
            assert mod.hash64.__wrapped__ is hash64
        assert flows.max_min_fair.__wrapped__ is solve
        assert vars(ElasticConsistentHash)["locate"].__wrapped__ is locate
        # No repro module may still hold an unwrapped original.
        wrapped = {id(orig) for _, _, orig in shims.patched}
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for attr, value in vars(mod).items():
                if callable(value) and not isinstance(value, type):
                    assert id(value) not in wrapped, f"{name}.{attr}"
    finally:
        shims.remove()
    assert shims.restored()
    for mod in holders:
        assert mod.hash64 is hash64
    assert flows.max_min_fair is solve and bandwidth.max_min_fair is solve
    assert vars(ElasticConsistentHash)["locate"] is locate
    assert vars(Simulator)["schedule_at"] is schedule_at


def test_no_quorum_error_passes_through_the_shims():
    from repro.kvstore.replicated import NoQuorumError, ReplicatedKVStore
    rec = Recorder()
    shims = Shims(rec)
    shims.install()
    try:
        store = ReplicatedKVStore([1, 2, 3], replicas=3,
                                  on_no_quorum="raise")
        store.crash_node(2)
        store.crash_node(3)
        with pytest.raises(NoQuorumError):
            store.set("k", "v")
    finally:
        shims.remove()
    assert shims.restored() and not rec.stack
    assert rec.calls("kvstore.write") == 1
    assert rec.calls("kvstore.node_fault") == 2


def test_event_handlers_get_spans_of_their_own():
    from repro.simulation.engine import Simulator
    rec = Recorder()
    shims = Shims(rec)
    shims.install()
    try:
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, "a")
        sim.run()
    finally:
        shims.remove()
    assert hits == ["a"]
    assert rec.calls("simulation.step") == 2      # one event, one empty
    assert rec.calls("simulation.schedule") == 1
    assert rec.calls("harness.handler") == 1      # list.append: no layer


# ----------------------------------------------------------------------
# names and the manifest
# ----------------------------------------------------------------------
def test_every_name_is_valid():
    names = ([m.name for m in E2E] + [m.name for m in PER_LAYER]
             + list(WORKLOADS) + list(TARGETS))
    for name in names:
        assert NAME.match(name), name
    assert len({m.name for m in PER_LAYER}) == len(PER_LAYER) <= 128
    for span in TARGETS:
        assert span.split(".")[0] in LAYERS, span
    for m in list(E2E) + PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit), m
        assert m.better in ("lower", "higher")


def test_manifest_matches_the_code():
    assert set(MANIFEST) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["run_seconds"] == bench_run.DEFAULT_SECONDS
    assert MANIFEST["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in WORKLOADS.values())
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in E2E]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert set(SIZES) == set(QUICK_SIZES) == set(WORKLOADS)


# ----------------------------------------------------------------------
# one quick end-to-end run
# ----------------------------------------------------------------------
def _run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


def test_quick_run_reports_every_manifest_metric(tmp_path):
    proc = _run("--quick", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads((tmp_path / "results.json").read_text())
    assert list(ledger["workloads"]) == [
        w["name"] for w in MANIFEST["workloads"]]
    for name, doc in ledger["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for m in MANIFEST[kind]:
                value = doc[kind][m["name"]]
                assert isinstance(value, (int, float)), (name, m["name"])
                assert m["name"] in proc.stdout
        assert doc["failed"] == 0 and doc["attempted"] >= 1
        assert all(doc["end_to_end"][m["name"]] > 0
                   for m in MANIFEST["end_to_end"])
        assert (tmp_path / f"trace_{name}.json").is_file()
    # Layer isolation holds even at toy sizes.
    layers = {n: d["per_layer"] for n, d in ledger["workloads"].items()}
    assert layers["flow_storm"]["hashring.calls"] == 0
    assert layers["kv_churn"]["cluster.calls"] == 0
    assert layers["kv_churn"]["core.calls"] == 0
    for name, values in layers.items():
        if name != "serve_resize":
            assert values["serving.calls"] == 0, name


@pytest.mark.parametrize("trace,table", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_driver_mode_prints_the_contract_object(tmp_path, trace, table):
    proc = _run("--quick", "--workload", "kv_churn", "--seed", "3",
                "--seconds", "0.2", "--trace", trace, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST[table]]
    for m in MANIFEST[table]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree holding only the benchmark's own files there is
    nothing to measure: non-zero exit, no result object."""
    import shutil
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "place_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
