"""The churn run for the replicated KV store.

:func:`run_kv_churn`: a seeded client population hammers the store
through live membership churn (``propose_view``/``commit_view`` every
``churn_every`` seconds) while a
:class:`~repro.faults.injector.FaultInjector` crashes nodes and drops
links per a :class:`~repro.faults.plan.FaultPlan`, failed writes retry
under a :class:`~repro.faults.retry.RetryPolicy` until acked or
quarantined, and the online consistency checkers
(:mod:`repro.obs.invariants`) watch the ``kv.*`` event stream live.

All randomness flows from the seed through one
``numpy.random.Generator`` plus the plan generator, so a same-seed run
emits a byte-identical trace — the property ``tests/test_goldens.py``
pins against ``.github/golden/kv-churn.sha256``.  ``python -m repro
kvchurn`` renders the result via :func:`render_kv_churn_report` and
exits 1 unless :attr:`KVChurnResult.ok`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.faults.injector import (
    FaultAction,
    FaultInjector,
    render_audit_rows,
    render_fault_timeline,
)
from repro.faults.plan import FaultPlan, require_periods
from repro.faults.retry import RetryPolicy
from repro.kvstore.replicated import (
    NoQuorumError,
    ReplicatedKVStore,
    StaleSessionError,
)
from repro.obs.invariants import checked_run, render_invariants
from repro.obs.runtime import OBS
from repro.simulation.engine import Simulator

__all__ = [
    "KVChurnResult",
    "run_kv_churn",
    "render_kv_churn_report",
]

#: Client tick in simulated seconds: each client issues one op a tick.
DT = 1.0


# ----------------------------------------------------------------------
# the churn run
# ----------------------------------------------------------------------
@dataclass
class KVChurnResult:
    """Everything one kv-churn run observed, for the report and tests."""

    seed: Optional[int]
    nodes: int
    replicas: int
    clients: int
    duration: float
    final_epoch: int = 0
    views_committed: int = 0
    #: Injected actions in firing order: ``{t, kind, rank, peer}``.
    faults: List[Dict[str, object]] = field(default_factory=list)
    #: Store-level op counters (acked/degraded/failed/...).
    store_stats: Dict[str, int] = field(default_factory=dict)
    ops_issued: int = 0
    retried_writes: int = 0
    quarantined_writes: int = 0
    unavailable_reads: int = 0
    audits: List[Dict[str, object]] = field(default_factory=list)
    final_audit: Dict[str, object] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    checkers: int = 0
    events_seen: int = 0

    @property
    def ok(self) -> bool:
        """Did the run end healthy: no invariant violations, no acked
        write lost, replication factor restored, and no client write
        quarantined (every write eventually acked)?"""
        return (not self.violations
                and self.quarantined_writes == 0
                and int(self.final_audit.get("lost_acked", 1)) == 0
                and int(self.final_audit.get("under_replicated", 1)) == 0)


def run_kv_churn(
    seed: int = 7,
    nodes: int = 5,
    replicas: int = 3,
    clients: int = 4,
    keys: int = 24,
    duration: float = 120.0,
    churn_every: float = 30.0,
    plan: Optional[FaultPlan] = None,
    audit_every: float = 10.0,
    check: bool = True,
) -> KVChurnResult:
    """Drive a seeded client population through membership churn under
    injected faults.

    Node ids are ranks ``1..nodes`` so the fault plan's ranks address
    them directly.  *plan* defaults to
    :meth:`FaultPlan.generate(seed, nodes, 0.6 * duration, ...)
    <repro.faults.plan.FaultPlan.generate>` — one crash with delayed
    repair plus one link-loss window.  Both heal inside the run, so
    the drain phase ends with every node reachable and the final audit
    finds no acked write lost and the replication factor restored.
    The two windows may overlap, though: when the crashed node and
    the dead link sit in one replica set, that set is short of its
    quorum until one heals, and a write that exhausts its retries
    meanwhile is quarantined — the run ends ``DEGRADED`` (``--seed 6
    --nodes 15 --clients 32 --keys 900 --duration 600`` does).  Pass
    a *plan* with disjoint windows to rule that out.  *duration*,
    *churn_every* and *audit_every* are simulated seconds and must be
    finite and ``> 0``.  All randomness lives in the plan
    and one ``default_rng(seed)`` stream; the run is otherwise a pure
    function of its parameters, which is what makes same-seed traces
    byte-identical.
    """
    if nodes < replicas:
        raise ValueError(f"nodes={nodes} cannot hold {replicas} replicas")
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if keys < 3:
        raise ValueError("keys must be >= 3 (strings, counters, lists)")
    require_periods(duration=duration, churn_every=churn_every,
                    audit_every=audit_every)
    if plan is None:
        plan = FaultPlan.generate(seed, n=nodes,
                                  duration=max(0.6 * duration, 3 * DT),
                                  crashes=1, slow_disks=0, link_losses=1)
    plan.check_ranks(nodes)

    sim = Simulator()
    injector = FaultInjector(plan)
    policy = RetryPolicy(seed=seed if seed is not None else 0)
    with checked_run(check) as checked:
        store = ReplicatedKVStore(list(range(1, nodes + 1)), replicas=replicas,
                                  link_blocked=injector.link_blocked,
                                  on_no_quorum="raise")
        rng = np.random.default_rng(seed)
        client_ids = [f"c{i}" for i in range(1, clients + 1)]
        # Typed keyspace (strings / counters / lists) so the op mix never
        # trips WrongTypeError.
        per_kind = max(keys // 3, 1)
        str_keys = [f"s{i:03d}" for i in range(per_kind)]
        ctr_keys = [f"n{i:03d}" for i in range(per_kind)]
        list_keys = [f"q{i:03d}" for i in range(per_kind)]

        counters = {"ops": 0, "retried": 0, "quarantined": 0,
                    "unavailable": 0}
        audits: List[Dict[str, object]] = []

        # ------------------------------------------------------------------
        # fault handling: crash wipes a node, repair re-admits it
        # ------------------------------------------------------------------
        def handle_fault(action: FaultAction) -> None:
            if action.kind == "crash":
                store.crash_node(action.rank)
            elif action.kind == "repair":
                store.repair_node(action.rank)
            # link_loss.* is ambient: the store consults
            # injector.link_blocked on every replica transfer.

        injector.arm(sim, handle_fault)

        # ------------------------------------------------------------------
        # client ops with retry-until-acked-or-quarantined
        # ------------------------------------------------------------------
        def write_once(client: str, op: str, key: str, value: object,
                       attempt: int) -> None:
            try:
                if op == "set":
                    store.set(key, value, client=client)
                elif op == "incr":
                    store.incr(key, client=client)
                elif op == "rpush":
                    store.rpush(key, value, client=client)
                elif op == "lpop":
                    store.lpop(key, client=client)
                else:  # delete
                    store.delete(key, client=client)
            except NoQuorumError:
                if policy.exhausted(attempt):
                    counters["quarantined"] += 1
                    return
                counters["retried"] += 1
                delay = policy.delay(attempt, f"{client}:{key}")
                sim.schedule_at(sim.now + delay, write_once,
                                client, op, key, value, attempt + 1)

        def read_once(client: str, key: str, kind: str) -> None:
            try:
                if kind == "list":
                    store.lrange(key, 0, -1, client=client)
                else:
                    store.get(key, client=client)
            except (NoQuorumError, StaleSessionError):
                counters["unavailable"] += 1

        def client_tick(tick: int) -> None:
            for client in client_ids:
                counters["ops"] += 1
                roll = float(rng.random())
                if roll < 0.40:                       # read
                    if rng.random() < 0.5:
                        read_once(client, str_keys[int(
                            rng.integers(len(str_keys)))], "string")
                    else:
                        read_once(client, list_keys[int(
                            rng.integers(len(list_keys)))], "list")
                elif roll < 0.65:                     # string write
                    key = str_keys[int(rng.integers(len(str_keys)))]
                    write_once(client, "set", key, f"{client}@{tick}", 1)
                elif roll < 0.80:                     # counter bump
                    key = ctr_keys[int(rng.integers(len(ctr_keys)))]
                    write_once(client, "incr", key, None, 1)
                elif roll < 0.92:                     # list append
                    key = list_keys[int(rng.integers(len(list_keys)))]
                    write_once(client, "rpush", key, tick, 1)
                elif roll < 0.97:                     # list drain
                    key = list_keys[int(rng.integers(len(list_keys)))]
                    write_once(client, "lpop", key, None, 1)
                else:                                 # delete
                    key = str_keys[int(rng.integers(len(str_keys)))]
                    write_once(client, "delete", key, None, 1)

        # ------------------------------------------------------------------
        # membership churn: alternately retire and re-admit the top node
        # ------------------------------------------------------------------
        churn_state = {"out": False, "staged": False}
        churn_node = nodes

        def churn_step() -> None:
            """Propose the next view; the commit lands next tick (the
            explicit two-step — ops in between still run on the old
            view)."""
            if churn_state["staged"]:
                return
            members = list(store.members)
            if churn_state["out"]:
                members.append(churn_node)
            else:
                if len(members) - 1 < replicas:
                    return                 # too small to shrink — grow only
                members.remove(churn_node)
            store.propose_view(sorted(members))
            churn_state["staged"] = True
            churn_state["out"] = not churn_state["out"]

        def commit_staged() -> None:
            if churn_state["staged"]:
                store.commit_view()
                churn_state["staged"] = False

        # ------------------------------------------------------------------
        # main loop
        # ------------------------------------------------------------------
        now = 0.0
        next_audit = audit_every
        next_churn = churn_every
        tick = 0
        with OBS.spans.span("kvchurn.run", seed=seed, nodes=nodes,
                            replicas=replicas, faults=len(plan)):
            while now < duration:
                now += DT
                tick += 1
                sim.run_until(now)       # faults + write retries fire here
                if OBS.bus.active:
                    OBS.bus.clock = now
                commit_staged()
                client_tick(tick)
                if now >= next_churn:
                    churn_step()
                    next_churn += churn_every
                if now >= next_audit:
                    audits.append({"t": now, **store.audit()})
                    next_audit += audit_every

            # Drain: delayed repairs and write retries may still be queued.
            while sim.pending > 0:
                now += DT
                sim.run_until(now)
                if OBS.bus.active:
                    OBS.bus.clock = now
            commit_staged()
            store.anti_entropy()
            audits.append({"t": now, **store.audit("final")})

    return KVChurnResult(
        seed=plan.seed,
        nodes=nodes,
        replicas=replicas,
        clients=clients,
        duration=now,
        final_epoch=store.epoch,
        views_committed=store.stats["views_committed"],
        faults=[{"t": t, "kind": a.kind, "rank": a.rank, "peer": a.peer}
                for t, a in injector.applied],
        store_stats=dict(store.stats),
        ops_issued=counters["ops"],
        retried_writes=counters["retried"],
        quarantined_writes=counters["quarantined"],
        unavailable_reads=counters["unavailable"],
        audits=audits,
        final_audit=audits[-1] if audits else {},
        violations=checked.violations,
        checkers=checked.checkers,
        events_seen=checked.events_seen,
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render_kv_churn_report(result: KVChurnResult) -> str:
    """The run as a markdown kv-churn report."""
    stats = result.store_stats
    lines: List[str] = [
        "# kv churn report",
        "",
        f"- seed: {result.seed}",
        f"- store: nodes={result.nodes}, r={result.replicas}, "
        f"clients={result.clients}",
        f"- duration: {result.duration:.0f} s; views committed: "
        f"{result.views_committed} (final epoch {result.final_epoch})",
        f"- client ops issued: {result.ops_issued} "
        f"(retries {result.retried_writes}, "
        f"quarantined {result.quarantined_writes}, "
        f"unavailable reads {result.unavailable_reads})",
        "",
        "## store counters",
        "",
        "| acked writes | degraded writes | failed writes | reads "
        "| degraded reads | failed reads | repair copies |",
        "| --- | --- | --- | --- | --- | --- | --- |",
        f"| {stats.get('writes_acked', 0)} "
        f"| {stats.get('writes_degraded', 0)} "
        f"| {stats.get('writes_failed', 0)} "
        f"| {stats.get('reads', 0)} "
        f"| {stats.get('reads_degraded', 0)} "
        f"| {stats.get('reads_failed', 0)} "
        f"| {stats.get('repair_copies', 0)} |",
        "",
        *render_fault_timeline(result.faults),
        "",
        "## consistency audits",
        "",
        "| t(s) | epoch | keys | lost acked | under-replicated |",
        "| --- | --- | --- | --- | --- |",
    ]
    lines += render_audit_rows(
        result.audits, "| {t:.0f} | {epoch} | {keys} "
        "| {lost_acked} | {under_replicated} |")
    lines += ["", *render_invariants(result)]
    verdict = "OK" if result.ok else "DEGRADED"
    lines += [
        "",
        "## outcome",
        "",
        f"- verdict: **{verdict}**",
        f"- final audit: "
        f"lost_acked={result.final_audit.get('lost_acked', '?')}, "
        f"under_replicated="
        f"{result.final_audit.get('under_replicated', '?')}",
        f"- quarantined writes: {result.quarantined_writes}",
    ]
    return "\n".join(lines)
