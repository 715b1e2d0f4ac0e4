"""Shared plumbing for the benchmark harness.

Every bench regenerates one paper artefact (a table or a figure) and
emits a plain-text report with the paper's numbers next to the
measured ones.  Reports land in ``benchmarks/reports/<name>.txt`` (and
on stdout when pytest runs with ``-s``), so ``pytest benchmarks/
--benchmark-only`` leaves a reviewable trail regardless of output
capture.  A report holds only what the simulation decides: wall-clock
timings are printed, never written, so a bench run leaves the
committed reports as they were.

Benches that pass ``data=`` to :func:`emit_report` additionally write
``benchmarks/reports/<name>.json`` — the measured series in
machine-readable form, for plotting or diffing.  Timings are compared
run against run with pytest-benchmark's own ``--benchmark-save`` /
``--benchmark-compare`` (README "Tests and benchmarks").
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

REPORT_DIR = Path(__file__).parent / "reports"


def emit_report(name: str, text: str, data: Optional[dict] = None) -> Path:
    """Write (and print) one bench's report.

    With *data*, the measured quantities are also dumped as
    ``<name>.json`` (``{"name", "report", "data"}`` with the ASCII
    report embedded so the JSON document is self-describing).
    """
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    if data is not None:
        document = {"name": name, "report": text, "data": data}
        (REPORT_DIR / f"{name}.json").write_text(
            json.dumps(document, indent=2, sort_keys=True, default=repr)
            + "\n")
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")
    return path


def once(benchmark, fn, *args, **kwargs):
    """Time *fn* exactly once through pytest-benchmark (the experiment
    drivers are seconds-long; statistical repetition adds nothing)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
