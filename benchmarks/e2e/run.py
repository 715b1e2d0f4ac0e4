"""The repo's end-to-end benchmark: six workloads, one ledger.

    python3 benchmarks/e2e/run.py                      # all six, seed 7
    python3 benchmarks/e2e/run.py --workload kv_churn --seed 11
    python3 benchmarks/e2e/run.py --check-noise        # run twice, compare
    python3 benchmarks/e2e/run.py --quick              # tiny sizes, seconds

    # what the benchmark driver calls (BENCHMARK.json):
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in child processes of its own (``child.py``), one
process and one thread at a time.  With ``--trace 0`` the end-to-end
metrics are measured with no shim installed, in :data:`CHILDREN` fresh
processes one after the other: each imports, generates inputs, runs one
cold rep (``setup_s`` and ``peak_rss_mb`` are the medians over the
processes) and then times reps for its share of ``--seconds``
(``wall_s`` is the median over all reps of all processes).  Times are
in *reference-host seconds*: every interval is divided by the host's
slowdown measured right before and after it (``hostspeed.py``).  With
``--trace 1`` one child adds a traced rep and the tax reps and reports
the per-layer metrics.  Without ``--trace`` both passes run and the
whole ledger is printed and written to ``<out>/results.json``.

See README.md for the metric tables and how to read the trace files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: Tuning seed; seed 11 is held out (a later claim must hold on both).
DEFAULT_SEED = 7
#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 14.0
QUICK_SECONDS = 0.2
#: Fresh processes per end-to-end run; each sets up once and times reps
#: for its share of the seconds.
CHILDREN = 3
CHILD_TIMEOUT_S = 170
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: Switches that select non-default code paths in the program.
_PRODUCT_SWITCHES = ("REPRO_SOLVER", "REPRO_BATCH_TICKS")


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, out: Path,
          quick: bool) -> dict:
    """Run ``child.py`` to completion and return its JSON document."""
    env = {k: v for k, v in os.environ.items()
           if k not in _PRODUCT_SWITCHES}
    env.update({k: "1" for k in _ONE_THREAD})
    cmd = [sys.executable, os.fspath(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode,
           "--out", os.fspath(out), "--spawned-at", repr(time.time())]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} ({mode}) exited "
                          f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _same_digest(workload: str, docs: List[dict]) -> str:
    digests = {d["digest"] for d in docs}
    if len(digests) != 1:
        raise ChildFailed(f"{workload}: result digests differ between "
                          f"processes: {sorted(digests)}")
    return digests.pop()


def measure_end_to_end(workload: str, seed: int, seconds: float, out: Path,
                       quick: bool) -> dict:
    """The untraced pass: values of every metric in ``metrics.E2E``."""
    from hostspeed import probe, slowdown
    children = 1 if quick else CHILDREN
    docs, setups, walls, raw_walls, slowdowns = [], [], [], [], []
    for _ in range(children):
        before = probe()
        doc = spawn(workload, seed, seconds / children, "timed", out, quick)
        docs.append(doc)
        probes = doc["probes"]
        setups.append(doc["setup_s"] / slowdown(before, probes[0]))
        for i, raw in enumerate(doc["walls"]):
            slow = slowdown(probes[i], probes[i + 1])
            slowdowns.append(slow)
            raw_walls.append(raw)
            walls.append(raw / slow)
    wall = statistics.median(walls)
    q1, _, q3 = (statistics.quantiles(walls, n=4) if len(walls) > 1
                 else (wall, wall, wall))
    return {
        "digest": _same_digest(workload, docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "ops_per_rep": docs[0]["ops"], "reps": len(walls),
        "wall_q1_s": q1, "wall_q3_s": q3,
        "wall_measured_s": statistics.median(raw_walls),
        "host_slowdown": statistics.median(slowdowns),
        "values": {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": docs[0]["ops"] / wall,
            "peak_rss_mb": statistics.median(
                d["peak_rss_mb"] for d in docs),
        },
    }


def measure_per_layer(workload: str, seed: int, seconds: float, out: Path,
                      quick: bool) -> dict:
    """The traced pass: values of every metric in ``metrics.PER_LAYER``."""
    doc = spawn(workload, seed, seconds, "trace", out, quick)
    return {"digest": doc["digest"], "attempted": doc["attempted"],
            "failed": doc["failed"], "values": doc["per_layer"]}


def contract_line(result: dict, units: Dict[str, str]) -> str:
    """The driver's result object: exactly these four keys."""
    return json.dumps({
        "correct": True,       # a wrong output never gets this far
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["values"].items()},
    })


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def run_ledger(names: List[str], seed: int, seconds: float, out: Path,
               quick: bool, filename: str = "results.json") -> dict:
    from metrics import E2E, PER_LAYER
    from workloads import WORKLOADS
    ledger = {"seed": seed, "quick": quick, "seconds": seconds,
              "workloads": {}}
    for name in names:
        e2e = measure_end_to_end(name, seed, seconds, out, quick)
        layers = measure_per_layer(name, seed, seconds, out, quick)
        digest = _same_digest(name, [e2e, layers])
        ledger["workloads"][name] = {
            "ops_unit": WORKLOADS[name].ops_unit, "digest": digest,
            "reps": e2e["reps"], "ops_per_rep": e2e["ops_per_rep"],
            "wall_q1_s": e2e["wall_q1_s"], "wall_q3_s": e2e["wall_q3_s"],
            "wall_measured_s": e2e["wall_measured_s"],
            "host_slowdown": e2e["host_slowdown"],
            "attempted": e2e["attempted"], "failed": e2e["failed"],
            "end_to_end": e2e["values"], "per_layer": layers["values"],
        }
        print(f"\n== {name}  seed {seed}  digest {digest[:16]}  "
              f"({e2e['ops_per_rep']} {WORKLOADS[name].ops_unit} per rep, "
              f"{e2e['failed']} of {e2e['attempted']} failed)")
        for m in E2E:
            extra = (f"  [median of n={e2e['reps']}; q1 "
                     f"{e2e['wall_q1_s']:.4f}, q3 {e2e['wall_q3_s']:.4f}; "
                     f"measured {e2e['wall_measured_s']:.4f} at host "
                     f"slowdown {e2e['host_slowdown']:.3f}]"
                     if m.name == "wall_s" else "")
            print(f"  {m.name:34s} {e2e['values'][m.name]:14.6g} "
                  f"{m.unit}{extra}")
        for m in PER_LAYER:
            print(f"  {m.name:34s} {layers['values'][m.name]:14.6g} "
                  f"{m.unit}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / filename, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {out / filename}")
    return ledger


def check_noise(first: dict, second: dict) -> bool:
    """Two ledgers of the same code: host-cost metrics must agree
    within their bounds, exact metrics and digests exactly."""
    from metrics import E2E, PER_LAYER
    ok = True
    print("\n== noise check: run 1 vs run 2")
    print(f"{'workload':13s} {'metric':34s} {'run 1':>13s} {'run 2':>13s} "
          f"{'gap':>8s}  verdict")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        rows = [("digest", a["digest"][:12], b["digest"][:12], None, True)]
        rows += [(m.name, a["end_to_end"][m.name], b["end_to_end"][m.name],
                  m.bound, False) for m in E2E]
        rows += [(m.name, a["per_layer"][m.name], b["per_layer"][m.name],
                  None, m.exact) for m in PER_LAYER]
        for metric, x, y, bound, exact in rows:
            if exact:
                gap, verdict = "", "PASS" if x == y else "FAIL"
            else:
                rel = (y - x) / x if x else 0.0
                gap = f"{rel:+.1%}"
                verdict = ("-" if bound is None
                           else "PASS" if abs(rel) <= bound else "FAIL")
            ok = ok and verdict != "FAIL"
            fmt = "13s" if isinstance(x, str) else "13.6g"
            print(f"{name:13s} {metric:34s} {x:{fmt}} {y:{fmt}} "
                  f"{gap:>8s}  {verdict}")
    print("\nnoise check:", "PASS" if ok else "FAIL")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long the timed children measure, in total")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver mode: one pass of one workload, result "
                         "object on the last line")
    ap.add_argument("--out", type=Path, default=HERE / "out")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes (smoke test; numbers mean nothing)")
    ap.add_argument("--check-noise", action="store_true",
                    help="run the set twice and compare the two ledgers")
    args = ap.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.fspath(REPO / "src"))
    from metrics import E2E, PER_LAYER
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r} "
                 f"(choose from: {', '.join(WORKLOADS)})")
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    try:
        if args.trace is not None:
            if len(names) != 1:
                ap.error("--trace needs exactly one --workload")
            if args.trace:
                result = measure_per_layer(names[0], args.seed, seconds,
                                           args.out, args.quick)
                units = {m.name: m.unit for m in PER_LAYER}
            else:
                result = measure_end_to_end(names[0], args.seed, seconds,
                                            args.out, args.quick)
                units = {m.name: m.unit for m in E2E}
            print(f"{names[0]} seed {args.seed} digest {result['digest']}"
                  + (f" host slowdown {result['host_slowdown']:.3f}"
                     if "host_slowdown" in result else ""))
            print(contract_line(result, units))
            return 0
        ledger = run_ledger(names, args.seed, seconds, args.out, args.quick)
        if args.check_noise:
            second = run_ledger(names, args.seed, seconds, args.out,
                                args.quick, "results_2.json")
            return 0 if check_noise(ledger, second) else 1
        return 0
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
