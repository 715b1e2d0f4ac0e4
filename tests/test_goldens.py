"""The pinned CI goldens that fix per-object order, run in tier-1.

``.github/golden/{chaos,three-phase,movement}.sha256`` hold the sha256
of what the ``chaos-smoke`` and ``bench-smoke`` jobs' commands write:
the chaos trace, the four three-phase traces and the agility / fig5
traces and reports.  Between them they pin the order a crash
re-replicates a rank's replicas, the order a departure re-homes them
and every migration the planners emit.  Each command below is the CI
job's, run in a scratch directory; the expected hash is read from the
golden file, never copied here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / ".github" / "golden"

#: CI command (after ``python -m repro``) -> the files it writes, as
#: named in the golden files, and the file its stdout goes to (if any).
RUNS = {
    "chaos": (["chaos", "--seed", "7", "--scale", "0.1",
               "--trace-out", "chaos-trace.jsonl", "--check"], None),
    "three-phase-selective": (
        ["three-phase", "--mode", "selective", "--scale", "0.05",
         "--trace-out", "bench-json/three_phase.jsonl", "--check",
         "--stats"], None),
    **{f"three-phase-{mode}": (
        ["three-phase", "--mode", mode, "--scale", "0.05", "--check",
         "--trace-out", f"bench-json/three_phase_{mode}.jsonl"], None)
       for mode in ("none", "original", "full")},
    "agility": (["agility", "--trace-out", "bench-json/agility.jsonl"],
                "bench-json/agility.txt"),
    "fig5": (["fig5", "--trace-out", "bench-json/fig5.jsonl"],
             "bench-json/fig5.txt"),
}


def golden_lines(name):
    """``path -> sha256`` of one golden file."""
    out = {}
    for line in (GOLDEN / f"{name}.sha256").read_text().splitlines():
        digest, path = line.split()
        out[path] = digest
    return out


EXPECTED = {**golden_lines("chaos"), **golden_lines("three-phase"),
            **golden_lines("movement")}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once; ``path -> sha256`` of what they wrote."""
    work = tmp_path_factory.mktemp("goldens")
    (work / "bench-json").mkdir()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for args, stdout in RUNS.values():
        done = subprocess.run([sys.executable, "-m", "repro", *args],
                              cwd=work, env=env, capture_output=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr.decode()[-2000:]
        if stdout is not None:
            (work / stdout).write_bytes(done.stdout)
    return {path: hashlib.sha256((work / path).read_bytes()).hexdigest()
            for path in EXPECTED}


@pytest.mark.parametrize("path", sorted(EXPECTED))
def test_output_matches_golden(outputs, path):
    assert outputs[path] == EXPECTED[path], path
