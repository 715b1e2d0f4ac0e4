"""CI: a smoke run's live verdicts and its trace file must agree.

    python .github/scripts/trace_parity.py TRACE.jsonl LIVE_OUTPUT.txt

``LIVE_OUTPUT.txt`` is what the run printed (stdout and stderr).  Passes
when every live verdict in it — the ``--check`` line and a harness
report's ``## invariants`` section, whichever are there — holds every
invariant over N events, ``repro check`` of the trace holds every
invariant over the same N, and the file has N lines.  A run has one
live suite, so its verdicts cannot differ.  The live checkers are only
handed the kinds they read; the bus still counts every event for them,
and this is where a drift between that count and what was written
would show.
"""

import re
import sys

from repro.obs.report import check_trace

#: ``--check`` on the command line, and the harness's report section.
LIVE = (re.compile(r"repro --check: all invariants hold \((\d+) events\)"),
        re.compile(r"all \d+ checkers hold over (\d+) events\."))


def main(argv) -> int:
    trace, live_path = argv[1], argv[2]
    with open(live_path, encoding="utf-8") as fh:
        text = fh.read()
    live = [int(n) for pattern in LIVE for n in pattern.findall(text)]
    if not live:
        print(f"{live_path}: expected a live all-hold verdict, found none",
              file=sys.stderr)
        return 1
    suite = check_trace(trace)
    with open(trace, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    print(f"{trace}: live events_seen {live}, offline events "
          f"{suite.events_seen}, trace lines {lines}, offline "
          f"{'holds' if suite.ok else 'VIOLATED'}")
    return 0 if suite.ok and {*live, suite.events_seen} == {lines} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
