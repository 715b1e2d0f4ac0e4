"""One workload in one fresh process (started by ``run.py``).

Every mode imports, generates inputs and runs one warm-up rep, then
reports how long that took since the parent spawned us and the peak RSS
of this one cold run.

``--mode timed``  then untraced reps for ``--seconds``, a host-speed
                  probe (:mod:`hostspeed`) before and after each.
``--mode trace``  then three untraced reps, one rep with the shims of
                  :mod:`tracing` installed, and the tax reps.

Every rep's outputs are checked and fingerprinted; a wrong output or a
digest that differs from the warm-up rep's ends the process non-zero.
The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Fewest timed reps per process (three processes make one run).
MIN_REPS = 2
#: Untraced reps the traced rep is compared against.
TRACE_BASE_REPS = 3


@dataclass
class Rep:
    """One rep: wall seconds, checked outcome, counts, digest."""

    wall: float
    outcome: object
    counts: Dict[str, object]
    digest: str

    def require(self, label: str, digest: Optional[str] = None) -> None:
        """Exit non-zero unless the outputs are correct (and, given
        *digest*, identical to the reference rep's)."""
        if self.outcome.problems:
            sys.exit(f"{label}: wrong output: "
                     + "; ".join(self.outcome.problems))
        if digest is not None and self.digest != digest:
            sys.exit(f"{label}: result digest {self.digest[:16]} differs "
                     f"from the warm-up rep's {digest[:16]}")


def peak_rss_mb() -> float:
    """Peak resident set of this process.  ``VmHWM`` where there is a
    ``/proc``: ``ru_maxrss`` starts from the *parent's* peak at the
    fork, so a small workload would report ``run.py``'s size."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rep(workload, inputs: dict, check: bool = True,
            recorder=None) -> Rep:
    """Time one ``workload.run`` — inside the shims and the root span
    when a *recorder* is given — then check and fingerprint it."""
    from repro.obs import OBS
    OBS.reset()
    gc.collect()
    if recorder is None:
        t0 = time.perf_counter()
        raw = workload.run(inputs, check)
        wall = time.perf_counter() - t0
    else:
        from tracing import ROOT, Shims
        shims = Shims(recorder)
        shims.install()
        try:
            t0 = time.perf_counter()
            raw = recorder.run(ROOT, workload.run, inputs, check)
            wall = time.perf_counter() - t0
        finally:
            shims.remove()
        if not shims.restored():
            raise RuntimeError("shims left behind after the traced rep")
    counts = OBS.metrics.snapshot(include_perf=False)
    outcome = workload.summarize(inputs, raw, counts)
    canonical = json.dumps({"fingerprint": outcome.fingerprint,
                            "counts": counts}, sort_keys=True, default=str)
    return Rep(wall, outcome, counts,
               hashlib.sha256(canonical.encode()).hexdigest())


def _tax_walls(workload, inputs: dict, digest: str, out: Path
               ) -> Dict[str, float]:
    """Wall seconds of one rep each: live checkers off, JSONL sink on,
    profiler on.  The last two must not change a single result."""
    from repro.obs import OBS, JSONLSink, Profiler
    walls: Dict[str, float] = {}

    rep = run_rep(workload, inputs, check=False)
    rep.require("tax:nocheck")        # fewer events seen: other digest
    walls["nocheck"] = rep.wall

    def with_jsonl(inp: dict, check: bool):
        with tempfile.NamedTemporaryFile(
                dir=out, prefix="tax_", suffix=".jsonl") as tmp:
            sink = OBS.bus.attach(JSONLSink(tmp.name))
            try:
                return workload.run(inp, check)
            finally:
                OBS.bus.detach(sink)
                sink.close()

    def with_profiler(inp: dict, check: bool):
        OBS.profiler = Profiler()
        try:
            return workload.run(inp, check)
        finally:
            OBS.profiler = None

    for kind, run in (("jsonl", with_jsonl), ("profiler", with_profiler)):
        rep = run_rep(dataclasses.replace(workload, run=run), inputs)
        rep.require(f"tax:{kind}", digest)
        walls[kind] = rep.wall
    return walls


def main(argv: Optional[List[str]] = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() in the parent just before the spawn")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    from workloads import QUICK_SIZES, SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]
    sizes = (QUICK_SIZES if args.quick else SIZES)[args.workload]
    inputs = workload.make_inputs(args.seed, sizes)
    warm = run_rep(workload, inputs)
    warm.require("warm-up")
    doc: Dict[str, object] = {
        "setup_s": time.time() - args.spawned_at,
        "peak_rss_mb": peak_rss_mb(),
        "digest": warm.digest,
        "ops": warm.outcome.ops,
    }

    if args.mode == "timed":
        from hostspeed import probe
        reps: List[Rep] = []
        start = time.perf_counter()
        # probes[i] and probes[i + 1] bracket rep i; probes[0] also
        # closes the bracket the parent opened around the set-up.
        probes = [probe()]
        while True:
            rep = run_rep(workload, inputs)
            rep.require(f"timed rep {len(reps) + 1}", warm.digest)
            reps.append(rep)
            probes.append(probe())
            spent = time.perf_counter() - start
            if (len(reps) >= MIN_REPS
                    and spent + spent / len(reps) > args.seconds):
                break
        doc["walls"] = [r.wall for r in reps]
        doc["probes"] = probes
        doc["attempted"] = sum(r.outcome.ops for r in reps)
        doc["failed"] = sum(r.outcome.failed for r in reps)

    elif args.mode == "trace":
        from metrics import LayerContext, derive_per_layer
        from tracing import Recorder
        base = [run_rep(workload, inputs) for _ in range(TRACE_BASE_REPS)]
        for i, rep in enumerate(base):
            rep.require(f"untraced rep {i + 1}", warm.digest)
        recorder = Recorder()
        traced = run_rep(workload, inputs, recorder=recorder)
        traced.require("traced rep", warm.digest)
        args.out.mkdir(parents=True, exist_ok=True)
        taxes = (_tax_walls(workload, inputs, warm.digest, args.out)
                 if workload.taxed else {})
        ctx = LayerContext(
            rec=recorder, counts=base[-1].counts, out=base[-1].outcome,
            base_s=statistics.median(r.wall for r in base),
            traced_s=traced.wall, taxes=taxes)
        doc["per_layer"] = derive_per_layer(ctx)
        doc["attempted"] = traced.outcome.ops
        doc["failed"] = traced.outcome.failed
        with open(args.out / f"trace_{args.workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(recorder.document(
                args.workload, rep=1 + TRACE_BASE_REPS + 1), fh)

    print(json.dumps(doc))


if __name__ == "__main__":
    main()
