"""Every pinned golden line and every same-seed promise, run in tier-1.

``.github/golden/*.sha256`` hold the sha256 of what the commands in
:data:`STAGES` write — the chaos, kv-churn, serve, three-phase, sweep,
agility and fig5 outputs and the offline readers' — and so pin
Algorithm 1's placement, Algorithm 2's re-integration and the order
every rule moves data.  The expected hashes are read from the golden
files, never copied here.  Beside them: same-seed reruns and untraced
runs print the same bytes, the sweep's documents do not depend on the
worker count, and each run's live verdicts agree with its trace.  The
outputs stay in pytest's ``goldens0`` directory (under ``--basetemp``).
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.obs.invariants import SWEEP_BOUNDARY_KIND
from repro.obs.report import check_trace
from repro.obs.trace import FIELDS

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / ".github" / "golden"

KV_MANY = ["kvchurn", "--seed", "7", "--nodes", "15", "--clients", "32",
           "--keys", "900", "--duration", "120", "--check"]
SWEEP = ["sweep", "--kind", "chaos", "--seeds", "0,1,2,3", "--n", "10",
         "--off-count", "4", "--scale", "0.03"]
TRACES = ("chaos-trace", "kv-churn-trace", "serve-trace")
READERS = ("stats", "report", "timeline", "check")

#: Name -> ``python -m repro`` arguments and the file its stdout goes to
#: (else stdout and stderr land in ``runs/<name>.live.txt``).  Each stage
#: reads only what earlier stages wrote.
STAGES = [{
    "chaos": ["chaos", "--seed", "7", "--scale", "0.1",
              "--trace-out", "chaos-trace.jsonl", "--check"],
    **{f"three-phase-stats-{i}": (
        ["three-phase", "--mode", "selective", "--scale", "0.05",
         "--trace-out", trace, "--check", "--stats"],
        f"bench-json/three_phase_stats_{i}.txt")
       for i, trace in ((1, "bench-json/three_phase.jsonl"),
                        (2, "bench-json/three_phase-2.jsonl"))},
    **{f"three-phase-{mode}": [
        "three-phase", "--mode", mode, "--scale", "0.05", "--check",
        "--trace-out", f"bench-json/three_phase_{mode}.jsonl"]
       for mode in ("none", "original", "full")},
    "agility": (["agility", "--trace-out", "bench-json/agility.jsonl"],
                "bench-json/agility.txt"),
    "fig5": (["fig5", "--trace-out", "bench-json/fig5.jsonl"],
             "bench-json/fig5.txt"),
    **{f"kv-churn{suffix}": ["kvchurn", "--seed", "7", "--check",
                             "--trace-out", f"kv-churn-trace{suffix}.jsonl"]
       for suffix in ("", "-2")},
    **{f"kv-churn-many-{i}": [*KV_MANY, "--trace-out",
                              f"kv-churn-many-{i}.jsonl"] for i in (1, 2)},
    "kv-churn-many-untraced": KV_MANY,
    "serve": ["serve", "--seed", "7", "--trace-out", "serve-trace.jsonl"],
    "serve-2": ["serve", "--seed", "7", "--trace-out", "serve-trace-2.jsonl"],
    "serve-untraced": ["serve", "--seed", "7"],
    "serve-seed11": ["serve", "--seed", "11",
                     "--trace-out", "serve-trace-seed11.jsonl"],
    **{f"sweep-w{w}": [*SWEEP, "--workers", str(w), "--out", f"sweep-w{w}"]
       for w in (1, 2)},
}, {
    **{f"{reader}-{stem}": ([reader, f"{stem}.jsonl"],
                            f"readers/{stem}.{reader}.txt")
       for stem in TRACES for reader in READERS},
    **{f"analytics-{stem}": ["timeline", f"{stem}.jsonl", "--json",
                             f"readers/{stem}.analytics.json"]
       for stem in TRACES},
    "check-three-phase": ["check", "bench-json/three_phase.jsonl"],
    "check-sweep": ["check", "sweep-w2/merged.jsonl"],
}, {
    "analytics-check-only": [
        "timeline", "readers/chaos-trace.analytics.json", "--check-only"],
}]
RUNS = {name: run for stage in STAGES for name, run in stage.items()}


def golden_lines():
    """``(path, sha256)`` of every line of every golden file."""
    return [tuple(reversed(line.split()))
            for golden in sorted(GOLDEN.glob("*.sha256"))
            for line in golden.read_text().splitlines()]


EXPECTED = dict(golden_lines())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Run every command (two at a time, stage by stage) in one
    directory: ``runs/<name>.live.txt`` holds what it printed that did
    not go to its stdout file, ``runs/<name>.exit`` its exit code."""
    work = tmp_path_factory.mktemp("goldens")
    for sub in ("bench-json", "readers", "runs"):
        (work / sub).mkdir()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def run(name):
        args, stdout = (RUNS[name] if isinstance(RUNS[name], tuple)
                        else (RUNS[name], None))
        argv = [sys.executable, "-m", "repro", *args]
        with open(work / f"runs/{name}.live.txt", "wb") as live:
            if stdout is None:
                done = subprocess.run(argv, cwd=work, env=env, timeout=300,
                                      stdout=live, stderr=subprocess.STDOUT)
            else:
                with open(work / stdout, "wb") as out:
                    done = subprocess.run(argv, cwd=work, env=env,
                                          timeout=300, stdout=out,
                                          stderr=live)
        (work / f"runs/{name}.exit").write_text(str(done.returncode))

    with ThreadPoolExecutor(max_workers=2) as pool:
        for stage in STAGES:
            list(pool.map(run, stage))
    return work


@pytest.mark.parametrize("name", sorted(RUNS))
def test_command_succeeds(work, name):
    assert (work / f"runs/{name}.exit").read_text() == "0", (
        RUNS[name], (work / f"runs/{name}.live.txt").read_text()[-2000:])


@pytest.mark.parametrize("path", sorted(EXPECTED))
def test_output_matches_golden(work, path):
    digest = hashlib.sha256((work / path).read_bytes()).hexdigest()
    assert digest == EXPECTED[path], path


def test_every_golden_line_is_checked():
    """The paths :func:`test_output_matches_golden` checks are the lines
    of every golden file (30), none pinned twice: no golden line is left
    to another runner."""
    checked = test_output_matches_golden.pytestmark[0].args[1]
    pinned = [line.split()[1] for golden in GOLDEN.glob("*.sha256")
              for line in golden.read_text().splitlines()]
    assert sorted(checked) == sorted(pinned) and len(pinned) == 30


@pytest.mark.parametrize("first, second", [
    ("kv-churn-trace.jsonl", "kv-churn-trace-2.jsonl"),
    ("kv-churn-many-1.jsonl", "kv-churn-many-2.jsonl"),
    ("serve-trace.jsonl", "serve-trace-2.jsonl"),
    ("bench-json/three_phase.jsonl", "bench-json/three_phase-2.jsonl"),
    # The metrics registry holds simulation state only.
    ("bench-json/three_phase_stats_1.txt",
     "bench-json/three_phase_stats_2.txt"),
    # Without --trace-out only the checkers listen; the report, the
    # audits and events_seen must not notice.
    ("runs/kv-churn-many-1.live.txt", "runs/kv-churn-many-untraced.live.txt"),
    ("runs/serve.live.txt", "runs/serve-untraced.live.txt"),
    # Merge order is the task id, never completion order.
    *((f"sweep-w1/{doc}", f"sweep-w2/{doc}") for doc in (
        "sweep.json", "merged.jsonl", "analytics_rollup.json")),
])
def test_same_bytes(work, first, second):
    assert (work / first).read_bytes() == (work / second).read_bytes()


#: The live verdicts a run prints: ``--check``'s line and a harness
#: report's ``## invariants`` section.
LIVE_VERDICTS = (
    re.compile(r"repro --check: all invariants hold \((\d+) events\)"),
    re.compile(r"all \d+ checkers hold over (\d+) events\."))


def parity_problems(trace: Path, live: str):
    """How a run's live verdicts and its trace file disagree.  Every
    live verdict must hold every invariant over N events, ``repro
    check`` of the trace must hold them over the same N, and the file
    must have N lines: the live checkers are handed only the kinds they
    read, and the bus still counts every event for them."""
    counts = [int(n) for pattern in LIVE_VERDICTS
              for n in pattern.findall(live)]
    suite = check_trace(str(trace))
    lines = len(trace.read_bytes().splitlines())
    problems = []
    if not counts:
        problems.append("no live all-hold verdict")
    if not suite.ok:
        problems.append("the offline replay finds violations")
    if {*counts, suite.events_seen} != {lines}:
        problems.append(f"live {counts}, offline {suite.events_seen}, "
                        f"lines {lines}")
    return problems


#: Run -> the trace it wrote with ``--check`` or a harness's own suite.
CHECKED = {"chaos": "chaos-trace.jsonl", "kv-churn": "kv-churn-trace.jsonl",
           "serve": "serve-trace.jsonl",
           "three-phase-stats-1": "bench-json/three_phase.jsonl"}


@pytest.mark.parametrize("run", sorted(CHECKED))
def test_trace_parity(work, run):
    live = (work / f"runs/{run}.live.txt").read_text()
    assert parity_problems(work / CHECKED[run], live) == []


def test_trace_parity_refuses_a_disagreement(work, tmp_path):
    """A trace one event short, a run with no verdict, and a report
    missing the run's first events while the ``--check`` line still
    agrees each fail."""
    live = (work / "runs/kv-churn.live.txt").read_text()
    events = [int(n) for pattern in LIVE_VERDICTS
              for n in pattern.findall(live)]
    assert len(events) == 2 and len(set(events)) == 1
    trace = tmp_path / "short.jsonl"
    trace.write_bytes(b"".join((work / "kv-churn-trace.jsonl")
                               .read_bytes().splitlines(keepends=True)[:-1]))
    assert parity_problems(trace, live)
    full = work / "kv-churn-trace.jsonl"
    assert parity_problems(full, "no verdict here\n")
    assert parity_problems(full, live.replace(
        f"hold over {events[0]} events", f"hold over {events[0] - 3} events"))


def traced_kinds(work):
    """Every kind in some trace the stages above write."""
    seen = set()
    for trace in work.rglob("*.jsonl"):
        with open(trace, encoding="utf-8") as fh:
            seen.update(json.loads(line)["kind"] for line in fh)
    return seen


def test_every_declared_kind_has_a_producer(work):
    """Every kind :data:`~repro.obs.trace.FIELDS` declares is in some
    trace the stages above write: a declared kind no run emits is a
    schema row, and maybe a checker, that nothing exercises."""
    assert set(FIELDS) - {"*"} - traced_kinds(work) == set()


def test_every_produced_kind_is_declared(work):
    """The converse: every kind the runs emit is in
    :data:`~repro.obs.trace.FIELDS`, so a new kind is declared (and its
    read fields typed) before a pinned trace carries it.  The sweep's
    task boundary is written by the merge, not emitted."""
    assert traced_kinds(work) - {SWEEP_BOUNDARY_KIND} - set(FIELDS) == set()


def test_timeline_shows_the_serving_latency_table(work):
    assert "serving latency" in (
        work / "readers/serve-trace.timeline.txt").read_text()
