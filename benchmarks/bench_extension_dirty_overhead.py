"""Extension — the dirty table's own overhead (§VII future work).

"As a future work, we consider the overhead of managing dirty data
table in the key-value store, which introduces memory footprint and
latency ... We have not carefully evaluated the overhead yet but we
believe the performance of state-of-the-art key-value store is able to
make the overhead minor."  This bench evaluates exactly that on our
Redis-equivalent: per-entry memory, insert latency, and the fetch-order
merge cost as the table grows to 10^5 entries.  The report holds the
memory column, which two runs reproduce byte for byte; the wall-clock
latencies are printed (``-s`` shows them), not committed.
"""

import gc
import time
import tracemalloc

from repro.core.dirty_table import DirtyTable
from repro.metrics.report import render_table

from _bench_utils import emit_report, once

SIZES = (1_000, 10_000, 100_000)


def fill(table, size):
    for oid in range(size):
        table.insert(oid, 1 + oid // 1_000)   # ~version per 1k writes


def profile(size):
    # What tracemalloc sees must not depend on what ran earlier in the
    # process: the first filled table also creates process-wide state
    # (the insert counter among it), and a full collection empties the
    # interpreter's free lists.
    fill(DirtyTable(), 1_000)
    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    table = DirtyTable()
    t0 = time.perf_counter()
    fill(table, size)
    insert_us = (time.perf_counter() - t0) / size * 1e6
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    bytes_per_entry = (after - before) / size

    t0 = time.perf_counter()
    entries = table.entries()
    merge_ms = (time.perf_counter() - t0) * 1e3
    assert len(entries) == size
    return insert_us, bytes_per_entry, merge_ms


def bench_extension_dirty_overhead(benchmark):
    results = once(benchmark, lambda: {s: profile(s) for s in SIZES})
    # The memory a 100k-entry backlog takes, from the measured column.
    backlog_mb = round(results[100_000][1]) * 100_000 / 1e6

    emit_report("extension_dirty_overhead", "\n".join([
        render_table(
            ["entries", "memory B/entry"],
            [[s, f"{r[1]:.0f}"] for s, r in results.items()],
            title="Dirty-table overhead (§VII's open question, "
                  "measured on the Redis-equivalent store)"),
        "",
        "Context: a 4 MB-object cluster writing at 320 MB/s while "
        "shrunk generates ~80 dirty entries/s, and a 100k-entry "
        f"backlog takes ~{backlog_mb:.0f} MB of memory.  The paper's "
        "'we believe the overhead [is] minor' holds.",
    ]))

    print(render_table(
        ["entries", "insert µs/entry", "full fetch-order merge ms"],
        [[s, f"{r[0]:.1f}", f"{r[2]:.1f}"]
         for s, r in results.items()],
        title="Dirty-table latencies (wall clock)"))

    for s, (insert_us, bpe, merge_ms) in results.items():
        assert insert_us < 100, s          # sub-0.1 ms inserts
        assert bpe < 2_000, s              # well under 2 KB/entry
    # The merge is near-linear: 100x entries < 1000x time.
    assert results[100_000][2] < results[1_000][2] * 1_000