"""Offline consistency checking — ``sheep -c check`` for the simulator.

Sheepdog ships a consistency checker that walks every object and
verifies its replicas against the current epoch's placement; this is
the equivalent for the simulated cluster, used by operators (the
examples), by the test suite's stateful machine, and as a debugging
aid when extending the system.

:func:`check_cluster` performs five audits and returns a structured
:class:`FsckReport`:

1. **replication** — every catalogued object has r replicas stored
   (anywhere), and at least one on a powered-on server;
2. **placement agreement** — each object's stored locations match the
   placement under its header's location version (the invariant the
   re-integration machinery maintains);
3. **dirty-table coherence** — every dirty entry references a
   catalogued object and a version that exists; a full-power cluster
   that claims quiescence has an empty table;
4. **orphan replicas** — no server holds a replica of an object the
   catalog does not know;
5. **holder index** — the cluster's derived ``oid -> holders`` index
   (what ``stored_locations`` answers from) equals a brute-force scan
   of every server's replica map (:func:`scan_holders`, the one place
   the scan survives, as the oracle — audits 1, 2 and 4 read it too,
   so a stale index cannot hide a lost replica from the checker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.cluster.cluster import ElasticCluster, OriginalCHCluster

__all__ = ["FsckIssue", "FsckReport", "check_cluster", "scan_holders",
           "check_holder_index"]


@dataclass(frozen=True)
class FsckIssue:
    """One inconsistency."""

    kind: str       # "replication" | "availability" | "placement" |
                    # "dirty" | "orphan" | "index"
    oid: int
    detail: str


@dataclass
class FsckReport:
    """Audit outcome."""

    objects_checked: int = 0
    replicas_checked: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return out

    def summary(self) -> str:
        if self.clean:
            return (f"fsck: clean — {self.objects_checked} objects, "
                    f"{self.replicas_checked} replicas")
        kinds = ", ".join(f"{k}: {n}" for k, n in
                          sorted(self.by_kind().items()))
        return (f"fsck: {len(self.issues)} issue(s) over "
                f"{self.objects_checked} objects ({kinds})")


def scan_holders(cluster: Union[ElasticCluster, OriginalCHCluster]
                 ) -> Dict[int, Tuple[int, ...]]:
    """``oid -> ascending ranks holding a replica``, rebuilt by brute
    force from every server's replica map — the oracle the cluster's
    holder index is checked against."""
    found: Dict[int, List[int]] = {}
    for rank in sorted(cluster.servers):
        for oid in cluster.servers[rank].replicas():
            found.setdefault(oid, []).append(rank)
    return {oid: tuple(ranks) for oid, ranks in found.items()}


def check_holder_index(
    cluster: Union[ElasticCluster, OriginalCHCluster],
    scanned: Optional[Dict[int, Tuple[int, ...]]] = None,
) -> List[FsckIssue]:
    """One ``index`` issue per oid whose indexed holders differ from
    the brute-force scan (missing, extra, or mis-ordered).  *scanned*
    reuses a :func:`scan_holders` result the caller already has."""
    actual = scanned if scanned is not None else scan_holders(cluster)
    indexed = cluster.holder_index()
    return [
        FsckIssue("index", oid,
                  f"indexed holders {indexed.get(oid)} != "
                  f"scanned {actual.get(oid)}")
        for oid in sorted(actual.keys() | indexed.keys())
        if indexed.get(oid) != actual.get(oid)
    ]


def check_cluster(cluster: ElasticCluster,
                  expect_quiescent: bool = False) -> FsckReport:
    """Audit *cluster*.

    With *expect_quiescent* the checker additionally requires the
    state a full-power cluster reaches after selective re-integration
    runs dry: empty dirty table and stored locations equal to
    current-version placements.
    """
    report = FsckReport()
    ech = cluster.ech
    known = set()
    # Ground truth for audits 1, 2, 4 and 5: the checker reads the
    # replica maps themselves, never the index it is about to audit.
    scanned = scan_holders(cluster)

    # Pre-resolve every object's placement under its location version
    # in bulk (one locate_bulk per distinct version) — audit 2 below
    # reads from this map instead of a scalar locate per object.  A
    # row the scalar path could not place (degraded membership) maps
    # to None, which skips the audit exactly as the old except-branch
    # did.
    expected: Dict[int, Optional[Set[int]]] = {}
    by_version: Dict[int, List[int]] = {}
    for obj in cluster.catalog:
        loc_ver = ech.location_version.get(obj.oid)
        if loc_ver is not None:
            by_version.setdefault(loc_ver, []).append(obj.oid)
    for ver, oids in by_version.items():
        bulk = ech.locate_bulk(oids, ver)
        for i, oid in enumerate(oids):
            expected[oid] = (set(bulk.servers[i].tolist())
                             if bulk.ok[i] else None)

    for obj in cluster.catalog:
        known.add(obj.oid)
        report.objects_checked += 1
        stored = scanned.get(obj.oid, ())
        report.replicas_checked += len(stored)

        # 1. replication + availability
        if len(stored) < cluster.replicas:
            report.issues.append(FsckIssue(
                "replication", obj.oid,
                f"{len(stored)} of {cluster.replicas} replicas stored"))
        if not any(cluster.servers[r].is_on for r in stored):
            report.issues.append(FsckIssue(
                "availability", obj.oid,
                f"no replica on a powered-on server (stored={stored})"))

        # 2. placement agreement under the location version
        loc_ver = ech.location_version.get(obj.oid)
        if loc_ver is not None:
            expect = expected[obj.oid]
            if expect is not None and set(stored) != expect:
                report.issues.append(FsckIssue(
                    "placement", obj.oid,
                    f"stored={sorted(stored)} != "
                    f"placement@v{loc_ver}={sorted(expect)}"))

    # 3. dirty-table coherence
    for entry in ech.dirty.entries():
        if entry.oid not in known:
            report.issues.append(FsckIssue(
                "dirty", entry.oid,
                f"dirty entry for unknown object (v{entry.version})"))
        if not 1 <= entry.version <= ech.current_version:
            report.issues.append(FsckIssue(
                "dirty", entry.oid,
                f"dirty entry references nonexistent version "
                f"{entry.version}"))
    if expect_quiescent:
        if not ech.is_full_power:
            report.issues.append(FsckIssue(
                "dirty", -1, "quiescence expected but not at full power"))
        elif not ech.dirty.is_empty():
            report.issues.append(FsckIssue(
                "dirty", -1,
                f"quiescence expected but {len(ech.dirty)} dirty "
                "entries remain"))

    # 4. orphan replicas
    for oid, ranks in scanned.items():
        if oid not in known:
            for rank in ranks:
                report.issues.append(FsckIssue(
                    "orphan", oid,
                    f"rank {rank} holds a replica of an uncatalogued "
                    "object"))

    # 5. holder index vs. the replica maps
    report.issues.extend(check_holder_index(cluster, scanned))

    return report
