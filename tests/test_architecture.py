"""The architecture rules, as tests over the product source.

Each row of :data:`RULES` is one rule: the files it reads, a predicate
returning the violations it finds in one file's source text (most parse
it and walk the ``ast``; a rule that must see comments too reads the
text), and planted violations — source that breaks the rule — that the
predicate must catch, so no rule can pass vacuously.
"""

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def files_under(directory: Path) -> Tuple[str, ...]:
    """Every file below *directory* (bytecode caches aside), relative
    to the repository root — what ``grep -r`` reads."""
    return tuple(str(p.relative_to(ROOT))
                 for p in sorted(directory.rglob("*"))
                 if p.is_file() and "__pycache__" not in p.parts)


def on_tree(predicate: Callable[[ast.Module], List[str]]
            ) -> Callable[[str], List[str]]:
    """An ``ast`` predicate as a check over source text."""
    return lambda source: predicate(ast.parse(source))


def text_matches(pattern: str) -> Callable[[str], List[str]]:
    """Every line matching *pattern*, comments and strings included."""
    regex = re.compile(pattern)
    return lambda source: [f"line {n}: {line.strip()}"
                           for n, line in enumerate(source.splitlines(), 1)
                           if regex.search(line)]


# ----------------------------------------------------------------------
# a server is power, capacity and bandwidth; the object table knows
# what it holds
# ----------------------------------------------------------------------
SERVER_ATTRIBUTES = {"rank", "capacity_bytes", "disk_bandwidth",
                     "network_bandwidth", "state"}


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


def reads_no_environment(source: str) -> List[str]:
    """No ``os.environ`` / ``os.getenv`` anywhere in the text, and no
    alias of them: an import of one of them from ``os``, or an
    attribute of that name on any module."""
    found = ENVIRONMENT_TEXT(source)
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


@dataclass(frozen=True)
class Rule:
    key: str
    name: str
    #: Files the rule reads, relative to the repository root.
    modules: Tuple[str, ...]
    check: Callable[[str], List[str]]
    planted: Tuple[str, ...]


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
          "def default_dataset_bytes(trace):\n    return 1e12\n")),
]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.key)
def test_rule_holds(rule):
    assert rule.modules
    for module in rule.modules:
        source = (ROOT / module).read_text(encoding="utf-8")
        assert rule.check(source) == [], (rule.name, module)


@pytest.mark.parametrize("rule, planted", [
    pytest.param(rule, planted, id=f"{rule.key}-{i}")
    for rule in RULES for i, planted in enumerate(rule.planted)])
def test_rule_catches_planted_violation(rule, planted):
    assert rule.check(planted), (rule.name, planted)
