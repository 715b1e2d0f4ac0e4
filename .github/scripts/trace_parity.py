"""CI: a smoke run's live verdict and its trace file must agree.

    python .github/scripts/trace_parity.py TRACE.jsonl LIVE_OUTPUT.txt

``LIVE_OUTPUT.txt`` is what the run printed (stdout and stderr).  Passes
when the live suite held every invariant over N events, ``repro check``
of the trace holds every invariant over the same N, and the file has N
lines.  The live checkers are only handed the kinds they read; the bus
still counts every event for them, and this is where a drift between
that count and what was written would show.
"""

import re
import sys

from repro.obs.report import check_trace

#: ``--check`` on the command line, else the harness's report section.
LIVE = (re.compile(r"repro --check: all invariants hold \((\d+) events\)"),
        re.compile(r"all \d+ checkers hold over (\d+) events\."))


def main(argv) -> int:
    trace, live_path = argv[1], argv[2]
    with open(live_path, encoding="utf-8") as fh:
        text = fh.read()
    # The command line's sink is attached together with the JSONL sink;
    # a harness attaches its own later, so prefer the former.
    live = next((found for found in (pattern.findall(text)
                                     for pattern in LIVE) if found), [])
    if len(live) != 1:
        print(f"{live_path}: expected one live all-hold verdict, found "
              f"{len(live)}", file=sys.stderr)
        return 1
    suite = check_trace(trace)
    with open(trace, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    counts = {"live events_seen": int(live[0]),
              "offline events": suite.events_seen, "trace lines": lines}
    print(f"{trace}: {counts}, offline "
          f"{'holds' if suite.ok else 'VIOLATED'}")
    return 0 if suite.ok and len(set(counts.values())) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
