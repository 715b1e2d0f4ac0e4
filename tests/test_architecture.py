"""The architecture rules, as tests over the product source.

Each row of :data:`RULES` is one rule: the files it reads, a check
returning the violations it finds in one file (most parse the source and
walk the ``ast``; a rule that must see comments too reads the text), and
planted violations — source that breaks the rule — that the check must
catch, so no rule can pass vacuously.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Tuple, Union

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``check(path, source)`` -> the violations found; *path* is relative
#: to the repository root.
Check = Callable[[str, str], List[str]]


def files_under(directory: Path) -> Tuple[str, ...]:
    """Every file below *directory* (bytecode caches aside), relative
    to the repository root — what ``grep -r`` reads."""
    return tuple(str(p.relative_to(ROOT))
                 for p in sorted(directory.rglob("*"))
                 if p.is_file() and "__pycache__" not in p.parts)


def python_under(directory: Path) -> Tuple[str, ...]:
    """The ``.py`` files of :func:`files_under` — what ``grep -r
    --include='*.py'`` reads."""
    return tuple(f for f in files_under(directory) if f.endswith(".py"))


def on_tree(predicate: Callable[[ast.Module], List[str]]) -> Check:
    """An ``ast`` predicate as a check over source text."""
    return lambda path, source: predicate(ast.parse(source))


def text_matches(pattern: str) -> Check:
    """Every line matching *pattern*, comments and strings included."""
    regex = re.compile(pattern)
    return lambda path, source: [
        f"line {n}: {line.strip()}"
        for n, line in enumerate(source.splitlines(), 1)
        if regex.search(line)]


def within(directories: Tuple[str, ...], check: Check) -> Check:
    """*check*, applied only to files below one of *directories*."""
    return lambda path, source: (
        check(path, source) if path.startswith(directories) else [])


def confined(check: Check, *sites: str) -> Check:
    """*check* may find something only in *sites*, and must find it in
    each of them, so the list of sites cannot go stale.  A row built
    with it names the same files as its ``sites``."""
    def run(path: str, source: str) -> List[str]:
        found = check(path, source)
        if path not in sites:
            return found
        return [] if found else [f"{path}: the allowed use is gone"]
    return run


def every(*checks: Check) -> Check:
    """The violations of all *checks*."""
    return lambda path, source: [found for check in checks
                                 for found in check(path, source)]


# ----------------------------------------------------------------------
# a server is power, capacity and bandwidth; the object table knows
# what it holds
# ----------------------------------------------------------------------
SERVER_ATTRIBUTES = {"rank", "capacity_bytes", "disk_bandwidth", "state"}


def server_keeps_no_per_object_state(tree: ast.Module) -> List[str]:
    """``StorageServer`` sets no attribute beyond rank, power state,
    capacity and bandwidths, declares none in its class body, and no
    method but ``__init__`` takes an argument (a per-object method
    takes an oid)."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef)
                and cls.name == "StorageServer"):
            continue
        for node in cls.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                found.append(f"line {node.lineno}: class attribute")
            if (isinstance(node, ast.FunctionDef)
                    and node.name != "__init__"
                    and len(node.args.args) + len(node.args.kwonlyargs)
                    + bool(node.args.vararg) > 1):
                found.append(f"line {node.lineno}: {node.name} takes "
                             "an argument")
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in SERVER_ATTRIBUTES):
                found.append(f"line {node.lineno}: self.{node.attr}")
    return found


# ----------------------------------------------------------------------
# where an object lives is stored once: no second copy, and none of the
# code that reconciled the copies
# ----------------------------------------------------------------------
RECONCILERS = {"scan_holders", "check_holder_index", "DataObject",
               "ObjectCatalog", "holder_index"}


def cluster_exports_no_reconciler(tree: ast.Module) -> List[str]:
    """No module of ``repro.cluster`` defines, imports or lists in
    ``__all__`` a name of the removed copies or their reconcilers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.alias):
            name = (node.asname or node.name).rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in RECONCILERS:
            found.append(f"line {getattr(node, 'lineno', '?')}: {name}")
    return found


# ----------------------------------------------------------------------
# library behaviour must not depend on the environment
# ----------------------------------------------------------------------
ENVIRONMENT_TEXT = text_matches(r"os\.environ|os\.getenv")
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv",
                     "unsetenv"}


def reads_no_environment(path: str, source: str) -> List[str]:
    """No ``os.environ`` / ``os.getenv`` anywhere in the text, and no
    alias of them: an import of one of them from ``os``, or an
    attribute of that name on any module."""
    found = ENVIRONMENT_TEXT(path, source)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in ENVIRONMENT_NAMES for a in node.names)):
            found.append(f"line {node.lineno}: from os import")
        elif (isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_NAMES):
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


# ----------------------------------------------------------------------
# one hash family: every hasher (ring, kernel rehash chain, replicated
# KV, serving draws, retry jitter) calls hash64 / bulk_hash; a
# selectable family only some of them honour is a knob that silently
# half-works
# ----------------------------------------------------------------------
ONE_HASH_FAMILY = text_matches(r"sha1|hash_method")


# ----------------------------------------------------------------------
# what nothing ran stays deleted
# ----------------------------------------------------------------------
#: Module-level names (functions, classes, constants) and modules that
#: were deleted because no entry point reached them.
DELETED_NAMES = frozenset({
    "filebench", "FilebenchPersonality", "paper_three_phase",
    "SEQ_WRITER", "RATE_LIMITED_MIXED", "READ_MOSTLY", "FILESERVER",
    "WEBSERVER", "VARMAIL",
    "replica_counts_from_matrix", "normalized_shape", "gini",
    "distribution_stats",
    "uniform_weights", "validate_weights",
    "IdealPolicy", "get_runtime", "default_dataset_bytes",
    "scenario_kvs", "scenario_view_change", "scenario_sharding",
    "SCENARIOS", "run_scenarios",
    "dashboard", "render_dashboard", "write_dashboard",
    "_run_artifacts", "_load_json_quiet", "_flatten_numeric",
    "_span_distributions", "_analytics_summary", "_profile_hotspots",
    "DEFAULT_MIN_SECONDS",
    "compare", "compare_runs", "render_compare", "CompareError",
    "ComparisonResult", "Delta",
    "MachineHourMeter", "machine_hours_of_series", "MachineHourChecker",
    "power.sample",
})

#: Class -> members deleted from it.  Kept per class because several
#: are common names other classes rightly define (``clear``, ``max``).
DELETED_MEMBERS: Dict[str, FrozenSet[str]] = {
    "LoadTrace": frozenset({"to_csv", "from_csv", "to_jsonl",
                            "from_jsonl", "resample", "times"}),
    "StepSeries": frozenset({"from_points", "end_time", "__len__",
                             "times", "values", "mean", "max", "min"}),
    "ElasticConsistentHash": frozenset({"power_off", "power_on",
                                        "placement_map", "mark_clean"}),
    "DirtyTable": frozenset({"insert_many", "versions_present",
                             "entries_for_version"}),
    "Simulator": frozenset({"every", "clear", "peek_time"}),
    "FlowSet": frozenset({"involving", "interrupt_involving"}),
    "FluidFlow": frozenset({"ranks"}),
    "ReintegrationReport": frozenset({"merge"}),
    "MembershipTable": frozenset({"num_servers", "inactive_ranks"}),
    "EqualWorkLayout": frozenset({"secondary_ranks"}),
    "FaultInjector": frozenset({"disk_factor", "blocked_pairs"}),
    "ReplicatedKVStore": frozenset({"node_is_down", "coordinator_for"}),
    "CompiledProblem": frozenset({"nnz"}),
    "Phase": frozenset({"read_bytes", "min_duration"}),
    "TraceExperiment": frozenset({"table1_row"}),
    "VirtualDisk": frozenset({"allocated_bytes", "is_allocated"}),
    "Gauge": frozenset({"dec"}),
    "LayoutVersionsResult": frozenset({"stats"}),
}


def _member_names(node: ast.stmt) -> List[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign)
               else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def defines_no_deleted_name(tree: ast.Module) -> List[str]:
    """No deleted name is defined, imported (under its own name or an
    alias, or as the module imported from) or listed as a string (an
    ``__all__`` entry), and no class gets a deleted member back."""
    found = []
    for node in ast.walk(tree):
        names: List[str] = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname or ""]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = node.module.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        for name in names:
            if name in DELETED_NAMES:
                found.append(f"line {getattr(node, 'lineno', '?')}: {name}")
        if isinstance(node, ast.ClassDef) and node.name in DELETED_MEMBERS:
            for member in node.body:
                for name in _member_names(member):
                    if name in DELETED_MEMBERS[node.name]:
                        found.append(f"line {member.lineno}: "
                                     f"{node.name}.{name}")
    return found


# ----------------------------------------------------------------------
# one applier for every data movement
# ----------------------------------------------------------------------
def one_replica_store_site(tree: ast.Module) -> List[str]:
    """Five rules plan migration tasks and ``_ClusterBase._apply``
    lands them: it is the one ``objects.store(`` call (the write path
    lands through ``objects.write``).  A second site is a second
    applier."""
    sites = [(func.name, node.lineno)
             for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "store"
             and isinstance(node.func.value, ast.Attribute)
             and node.func.value.attr == "objects"]
    if [name for name, _ in sites] == ["_apply"]:
        return []
    return [f"line {line}: objects.store in {name}" for name, line in sites
            ] or ["no objects.store call in _apply"]


# ----------------------------------------------------------------------
# one process per task attempt: no pool whose members share a fate
# ----------------------------------------------------------------------
POOL_NAMES = {"ProcessPoolExecutor", "BrokenProcessPool"}


def runs_no_shared_pool(tree: ast.Module) -> List[str]:
    """No import of ``concurrent.futures`` (or anything under it), under
    any alias, and no mention of the process pool or its breakage."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{a.name}"
                                       for a in node.names]
        else:
            modules = []
        if any(m == "concurrent.futures"
               or m.startswith("concurrent.futures.") for m in modules):
            found.append(f"line {node.lineno}: imports concurrent.futures")
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in POOL_NAMES:
            found.append(f"line {getattr(node, 'lineno', '?')}: {name}")
    return found


# ----------------------------------------------------------------------
# constants for the knobs nobody turns
# ----------------------------------------------------------------------
#: ``"module:Callable"`` -> parameters or dataclass fields that became
#: module constants because no CLI flag, bench, example or ledger
#: workload set them; ``"**"`` is a keyword pass-through.  A class's
#: entry covers its ``__init__`` and its annotated fields; a method is
#: named ``Class.method``.
REMOVED_KNOBS: Dict[str, FrozenSet[str]] = {
    "repro.experiments.resize_agility:run_resize_agility": frozenset({
        "n", "replicas", "object_size", "step_interval", "batch",
        "disk_bw", "recovery_fraction", "duration", "vnodes_per_server"}),
    "repro.experiments.layout:run_layout_versions": frozenset({
        "n", "replicas", "off_count", "object_size", "B"}),
    "repro.experiments.three_phase:run_three_phase": frozenset({
        "phase2_rate", "max_duration", "probe_objects",
        "isolate_reintegration"}),
    "repro.experiments.traces:run_trace_analysis": frozenset({
        "window_start_minutes", "window_minutes", "**"}),
    "repro.workloads.three_phase:three_phase_workload": frozenset({
        "phase2_rate"}),
    "repro.cluster.runtime:ThreePhaseLoad": frozenset({"probe_objects"}),
    "repro.faults.harness:run_chaos": frozenset({"dt"}),
    "repro.kvstore.harness:run_kv_churn": frozenset({"dt"}),
    "repro.serving.harness:run_serve": frozenset({"think_time"}),
    "repro.serving.clients:ClosedLoopPopulation": frozenset({
        "think_time", "retry_delay"}),
    "repro.faults.retry:RetryPolicy": frozenset({
        "base_delay", "factor", "max_delay", "max_attempts", "jitter"}),
    "repro.serving.flowcontrol:UnthrottledController": frozenset({
        "declared_bound"}),
    "repro.serving.flowcontrol:FixedConcurrencyController": frozenset({
        "limit"}),
    "repro.serving.flowcontrol:AdaptiveQueueController": frozenset({
        "bound", "target", "gain", "background_factor", "max_delay"}),
    "repro.serving.flowcontrol:make_controller": frozenset({"**"}),
    "repro.policy.controller:ReactiveController": frozenset({
        "headroom", "hold_samples"}),
    "repro.policy.controller:PredictiveController": frozenset({
        "alpha", "beta", "headroom", "horizon_samples"}),
    "repro.policy.resizer:PolicyConfig": frozenset({
        "disk_bw", "replicas", "recovery_fraction", "migration_fraction",
        "selective_rate_limit"}),
    "repro.policy.analysis:config_for_trace": frozenset({"**"}),
    "repro.policy.resizer:GreenCHTPolicy": frozenset({"num_tiers"}),
    "repro.policy.ideal:ideal_servers": frozenset({"n_min"}),
    "repro.policy.replay:replay_policy": frozenset({"seed"}),
    "repro.cluster.cluster:ElasticCluster": frozenset({"chain"}),
    "repro.cluster.cluster:OriginalCHCluster": frozenset({"capacities"}),
    "repro.core.elastic:ElasticConsistentHash": frozenset({
        "initially_active"}),
    "repro.core.versioning:VersionHistory": frozenset({
        "initially_active"}),
    "repro.core.kernel:PlacementKernel": frozenset({"max_tables"}),
    "repro.kvstore.replicated:ReplicatedKVStore": frozenset({
        "vnodes_per_node"}),
    "repro.simulation.engine:Simulator": frozenset({"start_time"}),
    "repro.faults.transfers:TransferManager": frozenset({
        "parent_span", "coefficients_for"}),
    "repro.faults.transfers:PlannedTransfer": frozenset({"coefficients"}),
    "repro.cluster.power:PowerModel": frozenset({"watts_off"}),
    "repro.cluster.server:StorageServer": frozenset({"network_bandwidth"}),
    "repro.cluster.runtime:ClusterRuntime.even_coefficients": frozenset({
        "ranks"}),
    "repro.experiments.three_phase:ThreePhaseResult.recovery_time_after":
        frozenset({"threshold_frac"}),
    "repro.obs.report:render_run_report": frozenset({"max_timeline_rows"}),
    "repro.obs.report:check_trace": frozenset({"checkers"}),
    "repro.obs.report:render_check": frozenset({"checkers"}),
    "repro.faults.plan:FaultPlan.generate": frozenset({"crashable"}),
    "repro.simulation.iomodel:IOModel.run": frozenset({"on_tick", "start"}),
    "repro.metrics.proportionality:proportionality_curve": frozenset({
        "ks"}),
    "repro.metrics.proportionality:read_capacity": frozenset({
        "tolerance"}),
    "repro.workloads.synthetic:diurnal_profile": frozenset({"period_s"}),
    "repro.workloads.synthetic:burst_profile": frozenset({
        "magnitude_sigma"}),
}

#: Callable name -> the knobs it may not have again.
_KNOBS_BY_NAME: Dict[str, FrozenSet[str]] = {
    key.split(":")[1].split(".")[-1]: knobs
    for key, knobs in REMOVED_KNOBS.items()}


def _parameters(fn: ast.FunctionDef) -> List[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names + (["**"] if args.kwarg else [])


def has_no_removed_knob(tree: ast.Module) -> List[str]:
    """No function or class named in :data:`REMOVED_KNOBS` takes one of
    its removed knobs back: as a parameter (of the function or of the
    class's ``__init__``), as an annotated class field, or as a
    ``**kwargs`` pass-through."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            owners = [(node.name, _parameters(node), node.lineno)]
        elif isinstance(node, ast.ClassDef):
            owners = [(node.name, _parameters(item), item.lineno)
                      for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "__init__"]
            owners.append((node.name, [
                item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)], node.lineno))
        else:
            continue
        for name, params, line in owners:
            for knob in sorted(set(params) & _KNOBS_BY_NAME.get(name, set())):
                found.append(f"line {line}: {name}({knob})")
    return found


# ----------------------------------------------------------------------
# a scheduled event is its heap entry: Simulator.cancel takes the entry
# schedule / schedule_at returned, and there is no Event object to call
# .cancel() on
# ----------------------------------------------------------------------
SIMULATION = "src/repro/simulation/"
SCHEDULERS = {"schedule", "schedule_at"}


def _schedules(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SCHEDULERS)


def _names_event(node: ast.AST) -> bool:
    """An ``Event`` class, an import of ``Event``, or ``"Event"`` in an
    ``__all__``."""
    if isinstance(node, ast.ClassDef):
        return node.name == "Event"
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "Event" for alias in node.names)
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            and any(isinstance(c, ast.Constant) and c.value == "Event"
                    for c in ast.walk(node.value)))


def one_heap_entry(path: str, source: str) -> List[str]:
    """No ``Event`` defined in or exported from ``repro.simulation``;
    nowhere a ``.cancel()`` on what ``schedule`` / ``schedule_at``
    returned — on the call itself, or on a name, attribute or item the
    module assigned such a call to."""
    tree = ast.parse(source)
    handles = {ast.unparse(target)
               for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and _schedules(node.value)
               for target in node.targets}
    found = []
    for node in ast.walk(tree):
        if path.startswith(SIMULATION) and _names_event(node):
            found.append(f"line {node.lineno}: Event in repro.simulation")
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cancel"
                and (_schedules(node.func.value)
                     or ast.unparse(node.func.value) in handles)):
            found.append(f"line {node.lineno}: .cancel() on a "
                         "scheduled event")
    return found


# ----------------------------------------------------------------------
# text rules: comments and strings count, as they do for grep
# ----------------------------------------------------------------------
#: The profiler measures; the sweep runner's ``time.monotonic`` is
#: attempt deadlines and ``run_info.json``'s total.  A third file is a
#: second way for the product to time itself.
WALL_CLOCK = text_matches(r"perf_counter|time\.monotonic|time\.time")
WALL_CLOCK_SITES = ("src/repro/obs/profile.py", "src/repro/runner/sweep.py")

#: A timed twin of a hot path behind a switch.
HOT_SWITCH = text_matches(r"OBS\.hot|\.hot\b")

#: ``obs.stats.percentile`` (nearest rank) is what report, timeline and
#: compare print; an upper median beside it makes two p50s.
UPPER_MEDIAN = text_matches(r"// 2\]")


# ----------------------------------------------------------------------
# one assembly of cluster + fluid IO: harnesses get their IOModel
# (capacities, capacity token) from repro.cluster.runtime.ClusterRuntime;
# a second hand-wired one is a second capacity-token rule to keep right
# ----------------------------------------------------------------------
RUNTIME = "src/repro/cluster/runtime.py"
RESIZER = "src/repro/policy/resizer.py"
#: The §V-B bandwidth shares: the resize rules read them, so a second
#: module under ``policy/`` that reads one restates a rule.
RESIZE_SHARES = text_matches(
    r"\b(MIGRATION_FRACTION|RECOVERY_FRACTION|SELECTIVE_RATE_LIMIT)\b")
IO_MODEL = text_matches(r"IOModel\(")

# ----------------------------------------------------------------------
# one module knows what is profiled: obs/profile.py's FRAMES table names
# every timed entry point; a guard or decoration elsewhere is a second
# list of what is timed, and a profiling branch in the product
# ----------------------------------------------------------------------
PROFILING = text_matches(
    r"OBS\.profiler|@profiled|\.advance_sim\(|prof\.(push|pop)\(")

# ----------------------------------------------------------------------
# one Redis command table, two stores: repro.kvstore.commands says what
# the commands mean, KVStore and ReplicatedKVStore apply it.  A third
# store, a second ring under the metadata, or LIST semantics (the
# LRANGE clamp, a head pop) re-typed beside commands.py is the copy that
# was deleted coming back
# ----------------------------------------------------------------------
KVSTORE = tuple(sorted(str(p.relative_to(ROOT))
                       for p in (SRC / "kvstore").glob("*.py")))
COMMANDS = "src/repro/kvstore/commands.py"
REPLICATED = "src/repro/kvstore/replicated.py"
STORE = "src/repro/kvstore/store.py"
SHARDED = "src/repro/kvstore/sharded.py"
ONE_COMMAND_TABLE = every(
    lambda path, source: [f"{path}: a third store"] if path == SHARDED
    else [],
    confined(text_matches(r"HashRing\("), REPLICATED),
    confined(text_matches(r"stop = min\(stop|\.pop\(0\)|\.popleft\(\)"),
             COMMANDS))

# ----------------------------------------------------------------------
# a ring is a value: HashRing builds its arrays from its weights, once;
# membership is a placement-time filter and a new weighting is a new
# ring.  A mutator, a dirty flag or a generation counter is a cache
# invalidation rule coming back
# ----------------------------------------------------------------------
RING = "src/repro/hashring/ring.py"
RING_IS_A_VALUE = every(
    within(("src/repro/hashring/", "src/repro/core/"), text_matches(
        r"def (add_server|remove_server|set_weight)|_rebuild_if_dirty"
        r"|\.generation\b")),
    text_matches(r"HashRing\(\)"))

# ----------------------------------------------------------------------
# hash in bulk what is known in bulk: a ring's vnodes are one array
# pass, one whole-ring vnode_positions call, never one per server
# ----------------------------------------------------------------------
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def vnodes_in_one_pass(path: str, source: str) -> List[str]:
    """The text names ``vnode_positions(`` exactly once (comments
    included), and no loop or comprehension calls it."""
    found = []
    count = source.count("vnode_positions(")
    if count != 1:
        found.append(f"{count} vnode_positions( in the text, not 1")
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, LOOPS):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call) and "vnode_positions" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None))):
                found.append(f"line {node.lineno}: vnode_positions in "
                             "a loop")
    return found


# ----------------------------------------------------------------------
# coefficients are values: a FluidFlow stores a frozen copy of its
# coefficients, so both allocation caches prove freshness by identity.
# An ordered-items compare is the by-value proof coming back, and item
# assignment is the in-place mutation it existed for
# ----------------------------------------------------------------------
COEFFICIENTS_ARE_VALUES = every(
    within(("src/repro/simulation/",), text_matches(
        r"coefficients\.items\(\)\) *[!=]=|def items\(|_columns\.items\(")),
    text_matches(r"\.coefficients\[[^\]]*\] *=[^=]"))

# ----------------------------------------------------------------------
# every Checker declares the event kinds it reads: the suite routes an
# event only to the checkers that declared its kind, so ``kinds`` must
# be a non-empty tuple of string literals
# ----------------------------------------------------------------------
def checker_classes(classes: List[ast.ClassDef], known: FrozenSet[str]
                    ) -> FrozenSet[str]:
    """*known* plus every class of *classes* deriving from one of them,
    directly or through another, by name or as a module attribute."""
    while True:
        found = {cls.name for cls in classes if any(
            getattr(base, "id", getattr(base, "attr", None)) in known
            for base in cls.bases)}
        if found <= known:
            return known
        known = known | found


def classes_in(source: str) -> List[ast.ClassDef]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)]


@functools.lru_cache(maxsize=None)
def src_checkers() -> FrozenSet[str]:
    """Every ``Checker`` subclass in the product, which a class in
    another module may derive from."""
    return checker_classes(
        [cls for path in python_under(SRC)
         for cls in classes_in((ROOT / path).read_text("utf-8"))],
        frozenset({"Checker"}))


def checkers_declare_kinds(path: str, source: str) -> List[str]:
    """Each ``Checker`` subclass sets ``kinds`` in its own body to a
    non-empty tuple of string literals."""
    classes = classes_in(source)
    checkers = checker_classes(classes, src_checkers()) - {"Checker"}
    found = []
    for cls in classes:
        if cls.name not in checkers:
            continue
        kinds = [node.value for node in cls.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and "kinds" in [getattr(t, "id", None) for t in getattr(
                     node, "targets", [getattr(node, "target", None)])]]
        if not (kinds and isinstance(kinds[0], ast.Tuple) and kinds[0].elts
                and all(isinstance(e, ast.Constant) and isinstance(
                    e.value, str) for e in kinds[0].elts)):
            found.append(f"line {cls.lineno}: {cls.name} declares no "
                         "non-empty tuple of string literals as kinds")
    return found


#: Where a planted source given without a path is checked: a new
#: module under ``src/repro``.
PLANTED_PATH = "src/repro/planted.py"


@dataclass(frozen=True)
class Rule:
    key: str
    name: str
    #: Files the rule reads, relative to the repository root.
    modules: Tuple[str, ...]
    check: Check
    #: Violations: source checked at :data:`PLANTED_PATH`, or a
    #: ``(path, source)`` pair for a rule that depends on where.
    planted: Tuple[Union[str, Tuple[str, str]], ...]
    #: The files its ``confined`` check allows, which must exist.
    sites: Tuple[str, ...] = ()


RULES = [
    Rule("server-state", "a StorageServer holds no per-object state",
         ("src/repro/cluster/server.py",),
         on_tree(server_keeps_no_per_object_state),
         ("class StorageServer:\n"
          "    def __init__(self, rank):\n"
          "        self.rank = rank\n"
          "        self._replicas = {}\n",
          "class StorageServer:\n"
          "    def has_replica(self, oid):\n"
          "        return False\n",
          "class StorageServer:\n"
          "    used_bytes: int = 0\n")),
    Rule("one-object-table",
         "repro.cluster keeps one copy of where objects live",
         files_under(SRC / "cluster"),
         on_tree(cluster_exports_no_reconciler),
         ("def scan_holders(cluster):\n    return {}\n",
          "from repro.cluster.fsck import check_holder_index\n",
          "__all__ = ['DataObject']\n",
          "class ObjectCatalog:\n    pass\n")),
    Rule("one-applier", "one applier for every data movement",
         ("src/repro/cluster/cluster.py",),
         on_tree(one_replica_store_site),
         ("class C:\n"
          "    def _apply(self, task):\n"
          "        self.objects.store(task.oid, task.size, task.moved_to)\n"
          "    def repair(self, oid):\n"
          "        self.objects.store(oid, 1, [2])\n",
          "class C:\n"
          "    def _apply(self, task):\n"
          "        pass\n")),
    Rule("environment", "library behaviour must not depend on the "
         "environment",
         files_under(SRC),
         reads_no_environment,
         ("import os\nseed = os.environ.get('SEED')\n",
          "import os\nseed = os.getenv('SEED')\n",
          "# set os.environ['REPRO_FAST'] to skip the solver\n",
          "from os import environ\n",
          "from os import getenv as env\n",
          "import os as o\nseed = o.environ['SEED']\n")),
    Rule("one-hash-family", "one hash family",
         files_under(SRC.parent),
         ONE_HASH_FAMILY,
         ("import hashlib\ndigest = hashlib.sha1(b'k').digest()\n",
          "def locate(oid, hash_method='sha1'):\n    pass\n",
          "# a hash_method switch would go here\n")),
    Rule("nothing-unreached", "what no entry point reached stays deleted",
         files_under(SRC),
         on_tree(defines_no_deleted_name),
         ("def gini(values):\n    return 0.0\n",
          "from repro.workloads.filebench import SEQ_WRITER\n",
          "from repro.obs.runtime import get_runtime as runtime\n",
          "__all__ = ['IdealPolicy']\n",
          "class Simulator:\n    def peek_time(self):\n        return None\n",
          "class StepSeries:\n    def __len__(self):\n        return 0\n",
          "class FluidFlow:\n    ranks: frozenset = frozenset()\n",
          "class PolicyConfig:\n    pass\n\n\n"
          "def default_dataset_bytes(trace):\n    return 1e12\n",
          "from repro.obs.dashboard import write_dashboard\n",
          "import repro.obs.dashboard\n",
          "def _run_artifacts(path):\n    return {}\n",
          "__all__ = ['compare_runs', 'render_dashboard']\n",
          "class Delta:\n    def to_dict(self):\n        return {}\n",
          "from repro.obs import compare\n",
          "import repro.obs.compare as gate\n",
          "def compare_runs(path_a, path_b, threshold=0.25):\n"
          "    return None\n",
          "def render_compare(result):\n    return ''\n",
          "class CompareError(ValueError):\n    pass\n",
          "__all__ = ['ComparisonResult']\n",
          "class Delta:\n    pass\n",
          "class MachineHourMeter:\n    def record(self, t, active):\n"
          "        pass\n",
          "from repro.cluster.power import machine_hours_of_series\n",
          "__all__ = ['MachineHourChecker']\n",
          "OBS.bus.emit('power.sample', t=t, active=n)\n")),
    Rule("no-unturned-knob", "a knob nobody turns is a constant",
         python_under(SRC),
         on_tree(has_no_removed_knob),
         ("def run_chaos(seed=7, n=10, dt=1.0):\n    return seed\n",
          "@dataclass(frozen=True)\nclass RetryPolicy:\n"
          "    seed: int = 0\n    jitter: float = 0.25\n",
          "def make_controller(kind, **kwargs):\n"
          "    return CONTROLLERS[kind](**kwargs)\n",
          "class Simulator:\n"
          "    def __init__(self, start_time=0.0):\n"
          "        self.now = start_time\n",
          "class ThreePhaseResult:\n"
          "    def recovery_time_after(self, t, threshold_frac=0.9):\n"
          "        return t\n",
          "def render_run_report(path, max_timeline_rows=40, since=None):\n"
          "    return path\n",
          "class TransferManager:\n"
          "    def __init__(self, cluster, flows, policy,\n"
          "                 coefficients_for=None):\n"
          "        self.cluster = cluster\n",
          "@dataclass\nclass PlannedTransfer:\n"
          "    nbytes: float\n    coefficients: dict = None\n",
          "def run(self, duration, start=0.0, on_tick=None):\n"
          "    return None\n",
          "class IOModel:\n"
          "    def run(self, duration, start=0.0):\n"
          "        return None\n")),
    Rule("one-heap-entry", "a scheduled event is its heap entry",
         python_under(SRC),
         one_heap_entry,
         (("src/repro/simulation/engine.py",
           "class Event:\n    __slots__ = ('time', 'seq')\n"),
          ("src/repro/simulation/__init__.py",
           "from repro.simulation.engine import Event, Simulator\n"),
          ("src/repro/simulation/__init__.py",
           "__all__ = ['Event', 'Simulator']\n"),
          "sim.schedule(1.0, tick).cancel()\n",
          "ev = sim.schedule_at(2.0, tick)\nev.cancel()\n",
          "state['removal'] = sim.schedule(1.0, done)\n"
          "state['removal'].cancel()\n",
          "class Timer:\n"
          "    def arm(self):\n"
          "        self.pending = self.sim.schedule_at(5.0, self.fire)\n"
          "    def disarm(self):\n"
          "        self.pending.cancel()\n")),
    Rule("one-process-per-task",
         "one process per task attempt, no shared pool",
         python_under(SRC),
         on_tree(runs_no_shared_pool),
         ("import concurrent.futures\n",
          "from concurrent.futures import ProcessPoolExecutor\n",
          "from concurrent import futures as cf\n",
          "try:\n    pass\nexcept BrokenProcessPool:\n    pass\n")),
    Rule("wall-clock", "one module reads the wall clock",
         python_under(SRC.parent),
         confined(WALL_CLOCK, *WALL_CLOCK_SITES),
         ("import time\nt0 = time.perf_counter()\n",
          "from time import perf_counter\n",
          "import time\ndeadline = time.monotonic() + 5\n",
          "import time\nstamp = time.time()\n",
          "# time.time() would do here\n"),
         sites=WALL_CLOCK_SITES),
    Rule("one-hot-body", "every hot path has one body",
         python_under(SRC.parent),
         HOT_SWITCH,
         ("if OBS.hot:\n    t0 = clock()\n",
          "timed = runtime.hot\n",
          "# the OBS.hot twin lives below\n")),
    Rule("one-percentile", "one percentile",
         files_under(SRC / "obs"),
         UPPER_MEDIAN,
         ("p50 = ordered[len(ordered) // 2]\n",
          "# an upper median: xs[n // 2]\n")),
    Rule("one-cluster-assembly", "one assembly of cluster + fluid IO",
         tuple(f for f in files_under(SRC)
               if not f.startswith("src/repro/simulation/")),
         confined(IO_MODEL, RUNTIME),
         ("io = IOModel(capacities, dt)\n",
          "# build an IOModel( here when the runtime is too slow\n",
          (RUNTIME, "io = None\n")),
         sites=(RUNTIME,)),
    Rule("resize-rules-once", "one statement of the §V-B resize rules",
         files_under(SRC / "policy"),
         confined(RESIZE_SHARES, RESIZER),
         (("src/repro/policy/replay.py",
           "budget = int(SELECTIVE_RATE_LIMIT * dt)\n"),
          ("src/repro/policy/replay.py",
           "from repro.policy.resizer import MIGRATION_FRACTION\n"),
          ("src/repro/policy/analysis.py",
           "rate = RECOVERY_FRACTION * k * DISK_BW\n"),
          (RESIZER, "DISK_BW = 80e6\n")),
         sites=(RESIZER,)),
    Rule("profiled-in-one-module", "one module knows what is profiled",
         tuple(f for f in python_under(SRC)
               if not f.startswith("src/repro/obs/")),
         PROFILING,
         ("if OBS.profiler is not None:\n    pass\n",
          "@profiled('kernel.locate')\ndef locate(oid):\n    pass\n",
          "clock.advance_sim(dt)\n",
          "prof.push('solve')\n",
          "prof.pop('solve')\n")),
    Rule("one-command-table", "one Redis command table, two stores",
         KVSTORE,
         ONE_COMMAND_TABLE,
         ((SHARDED, "class ShardedKVStore:\n    pass\n"),
          (STORE, "ring = HashRing(dict.fromkeys(nodes, 64))\n"),
          (COMMANDS, "stop = min(stop, n - 1)\nring = HashRing(w)\n"),
          (REPLICATED, "ring = None\n"),
          (STORE, "stop = min(stop, len(items) - 1)\n"),
          (REPLICATED, "ring = HashRing(w)\nhead = items.pop(0)\n"),
          (STORE, "head = items.popleft()\n"),
          (COMMANDS, "def lrange(items, start, stop):\n    return []\n")),
         sites=(COMMANDS, REPLICATED)),
    Rule("ring-is-a-value", "a ring is a value",
         (files_under(SRC.parent) + files_under(ROOT / "benchmarks")
          + files_under(ROOT / "examples")),
         RING_IS_A_VALUE,
         ((RING, "    def add_server(self, rank, weight):\n"),
          (RING, "    def remove_server(self, rank):\n"),
          ("src/repro/core/kernel.py",
           "    def set_weight(self, rank, weight):\n"),
          ("src/repro/core/kernel.py", "        ring._rebuild_if_dirty()\n"),
          ("src/repro/core/elastic.py",
           "if self.ring.generation != seen:\n    pass\n"),
          "ring = HashRing()\n",
          ("examples/quickstart.py", "ring = HashRing()\n"))),
    Rule("hash-in-bulk", "hash in bulk what is known in bulk",
         (RING,),
         vnodes_in_one_pass,
         ("positions = [hash64(s, i) for s in servers for i in range(4)]\n",
          "a = vnode_positions(ids, counts)\n"
          "b = vnode_positions(ids, counts)\n",
          "for s, c in zip(ids, counts):\n"
          "    p = vnode_positions([s], [c])\n",
          "while todo:\n    p = hashing.vnode_positions([todo.pop()], [1])\n",
          "p = [vnode_positions([s], [c]) for s, c in zip(ids, counts)]\n",
          "p = {vnode_positions([s], [c]) for s, c in zip(ids, counts)}\n",
          "p = {s: vnode_positions([s], [c]) for s, c in zip(ids, counts)}\n",
          "p = list(vnode_positions([s], [c]) for s, c in zip(ids, counts))\n"
          )),
    Rule("coefficients-are-values", "coefficients are values",
         files_under(SRC.parent),
         COEFFICIENTS_ARE_VALUES,
         (("src/repro/simulation/flows.py",
           "if tuple(flow.coefficients.items()) == key:\n    pass\n"),
          ("src/repro/simulation/flows.py",
           "if tuple(flow.coefficients.items()) != key:\n    pass\n"),
          ("src/repro/simulation/flows.py",
           "class Frozen:\n    def items(self):\n        return []\n"),
          ("src/repro/simulation/columnar.py",
           "for rank, c in self._columns.items():\n    pass\n"),
          "flow.coefficients[rank] = 0.5\n")),
    Rule("checker-kinds", "every Checker declares the event kinds it reads",
         python_under(SRC),
         checkers_declare_kinds,
         ("import repro.obs.invariants as inv\n"
          "class Missing(inv.Checker):\n    name = 'm'\n",
          "K = 'a.b'\nclass Computed(Checker):\n    kinds = (K,)\n",
          "class Empty(Checker):\n    kinds = ()\n",
          "class Listy(Checker):\n    kinds = ['a.b']\n",
          "class Good(Checker):\n    kinds = ('a.b',)\n"
          "class Child(Good):\n    name = 'inherits'\n",
          "class Wider(VersionMonotonicChecker):\n    name = 'wider'\n",
          "class Annotated(Checker):\n    kinds: tuple = tuple(['a.b'])\n")),
]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.key)
def test_rule_holds(rule):
    assert rule.modules and set(rule.sites) <= set(rule.modules)
    for module in rule.modules:
        source = (ROOT / module).read_text(encoding="utf-8")
        assert rule.check(module, source) == [], (rule.name, module)


@pytest.mark.parametrize("rule, planted", [
    pytest.param(rule, planted, id=f"{rule.key}-{i}")
    for rule in RULES for i, planted in enumerate(rule.planted)])
def test_rule_catches_planted_violation(rule, planted):
    path, source = ((PLANTED_PATH, planted) if isinstance(planted, str)
                    else planted)
    assert rule.check(path, source), (rule.name, planted)


def test_checker_kinds_flags_exactly_the_bad_classes():
    """In one module a checker that declares its kinds passes and each
    of five that do not (missing, computed, empty, a list, inherited
    only) is named; and the row sees the product's own checkers."""
    source = ("from repro.obs.invariants import Checker\n"
              "import repro.obs.invariants as inv\n"
              "K = 'a.b'\n"
              "class Good(Checker):\n    kinds = ('a.b',)\n"
              "class Missing(inv.Checker):\n    name = 'm'\n"
              "class Computed(Checker):\n    kinds = (K,)\n"
              "class Empty(Checker):\n    kinds = ()\n"
              "class Listy(Checker):\n    kinds = ['a.b']\n"
              "class Child(Good):\n    name = 'inherits'\n")
    flagged = [v.split(": ")[1].split()[0]
               for v in checkers_declare_kinds(PLANTED_PATH, source)]
    assert flagged == ["Missing", "Computed", "Empty", "Listy", "Child"]
    assert {"VersionMonotonicChecker", "KVReadYourWritesChecker"} \
        <= src_checkers()


@pytest.mark.parametrize("key", sorted(REMOVED_KNOBS))
def test_removed_knobs_are_gone_from_the_live_signatures(key):
    """Each entry of the ``no-unturned-knob`` row names a real callable
    (so the row cannot pass on a misspelt name) whose signature and
    dataclass fields no longer have the knobs."""
    module, qualname = key.split(":")
    obj = importlib.import_module(module)
    for name in qualname.split("."):
        obj = getattr(obj, name)
    params = inspect.signature(obj).parameters.values()
    names = {p.name for p in params}
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        names.add("**")
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)}
    assert names & REMOVED_KNOBS[key] == set(), key
