"""Every script in ``examples/`` runs: exit 0, something printed.

The examples read the cluster's public surface (``bytes_per_rank``,
``stored_locations``, ...), so a change to it that forgets one fails
here rather than in a reader's hands.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
