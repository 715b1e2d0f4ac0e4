"""The architecture rules, as tests over the product source.

Each row of :data:`RULES` is one rule: the modules it reads, an ``ast``
predicate returning the violations it finds in one module, and planted
violations — source that breaks the rule — that the predicate must
catch, so no rule can pass vacuously.
"""

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


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
    modules: Tuple[str, ...]
    check: Callable[[ast.Module], List[str]]
    planted: Tuple[str, ...]


RULES = [
    Rule("server-state", "a StorageServer holds no per-object state",
         ("cluster/server.py",),
         server_keeps_no_per_object_state,
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
         tuple(str(p.relative_to(SRC))
               for p in sorted((SRC / "cluster").glob("*.py"))),
         cluster_exports_no_reconciler,
         ("def scan_holders(cluster):\n    return {}\n",
          "from repro.cluster.fsck import check_holder_index\n",
          "__all__ = ['DataObject']\n",
          "class ObjectCatalog:\n    pass\n")),
    Rule("one-applier", "one applier for every data movement",
         ("cluster/cluster.py",),
         one_replica_store_site,
         ("class C:\n"
          "    def _apply(self, task):\n"
          "        self.objects.store(task.oid, task.size, task.moved_to)\n"
          "    def repair(self, oid):\n"
          "        self.objects.store(oid, 1, [2])\n",
          "class C:\n"
          "    def _apply(self, task):\n"
          "        pass\n")),
]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.key)
def test_rule_holds(rule):
    assert rule.modules
    for module in rule.modules:
        assert rule.check(parse(SRC / module)) == [], (rule.name, module)


@pytest.mark.parametrize("rule, planted", [
    pytest.param(rule, planted, id=f"{rule.key}-{i}")
    for rule in RULES for i, planted in enumerate(rule.planted)])
def test_rule_catches_planted_violation(rule, planted):
    assert rule.check(ast.parse(planted)), (rule.name, planted)
