#!/usr/bin/env python3
"""Failure vs planned power-down: what each costs.

The elastic design's core economy: powering a server *down* keeps its
data on disk (free), while a *crash* loses its replicas and forces
re-replication.  This example runs both on identical clusters and
compares the IO each incurs, then walks a crash through repair and
selective re-integration back to a healthy full-power layout.

Run:  python examples/failure_recovery.py
"""

from repro.cluster.cluster import ElasticCluster

MB4 = 4 * 1024 * 1024
OBJECTS = 1_000


def build():
    cl = ElasticCluster(n=10, replicas=2)
    for oid in range(OBJECTS):
        cl.write(oid, MB4)
    return cl


def main() -> None:
    # ---- planned power-down -------------------------------------------
    planned = build()
    held = planned.bytes_per_rank()[10]
    planned.resize(9)
    print("planned power-down of rank 10:")
    print(f"    data it held : {held / 1e9:.2f} GB — stays on disk")
    print(f"    IO required  : 0 GB (no clean-up work; the primaries "
          "guarantee availability)")
    print(f"    dirty entries: {len(planned.ech.dirty)}")
    print()

    # ---- crash ---------------------------------------------------------
    crashed = build()
    held = crashed.bytes_per_rank()[10]
    moved = crashed.fail_server(10)
    print("crash of rank 10:")
    print(f"    data it held : {held / 1e9:.2f} GB — lost")
    print(f"    IO required  : {moved / 1e9:.2f} GB re-replicated "
          "immediately (replication level restored)")
    print(f"    dirty entries: {len(crashed.ech.dirty)} "
          "(affected objects tracked for later re-integration)")
    print(f"    all objects still readable: "
          f"{all(crashed.read(oid)[1] for oid in range(0, OBJECTS, 37))}")
    print()

    # ---- repair + re-integration ----------------------------------------
    crashed.repair_server(10)
    crashed.resize(10)
    report = crashed.run_selective_reintegration()
    print("repair rank 10, power it back on, selective re-integration:")
    print(f"    objects migrated : {report.entries_migrated} "
          f"({report.bytes_migrated / 1e9:.2f} GB)")
    print(f"    dirty table empty: {crashed.ech.dirty.is_empty()}")
    healthy = all(
        set(crashed.stored_locations(oid))
        == set(crashed.ech.locate(oid).servers)
        for oid in range(OBJECTS))
    print(f"    layout restored  : {healthy}")


if __name__ == "__main__":
    main()
