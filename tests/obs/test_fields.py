"""The declared trace fields: ``FIELDS`` / ``check_event`` accept what
the emitters write, reject what the readers cannot read, and say so in
docs/OBSERVABILITY.md."""

import ast
import io
import math
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.trace import (FIELDS, TraceParseError, check_event,
                             iter_jsonl)

ROOT = Path(__file__).resolve().parents[2]


def emitted_kinds():
    """Every ``emit("kind"`` literal in ``src/`` (doctest examples
    aside)."""
    kinds = set()
    for path in (ROOT / "src").rglob("*.py"):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.lstrip().startswith((">>>", "...")):
                continue
            kinds.update(re.findall(r'emit\(\s*"([a-z_.]+)"', line))
    return kinds


class TestCheckEvent:
    @pytest.mark.parametrize("event", [
        {},
        {"kind": "migration.move", "t": None, "to": None},
        {"kind": "migration.move", "t": 0, "nbytes": 4.5e9, "to": [1, "b"]},
        {"kind": "span.begin", "t": 1.5, "span_id": "s1", "parent_id": 3},
        {"kind": "power.resize", "powered_on": [], "powered_off": [9]},
        {"kind": "no.such.kind", "t": 2, "to": "anything"},
        {"kind": "flow.start", "total_bytes": 10 ** 300},
        {"kind": "version.advance", "version": 3, "full_power": False},
        {"kind": "kv.read", "key": "k", "client": None, "vv": {},
         "degraded": True},
        {"kind": "kv.write.ack", "key": "k", "client": "c",
         "vv": {"n1": 2, "n3": 0}},
        {"kind": "chaos.audit", "lost": 0, "under_replicated": None},
    ])
    def test_accepts(self, event):
        check_event(event)

    @pytest.mark.parametrize("event,field", [
        ({"kind": "tick", "t": True}, "t"),
        ({"kind": "tick", "t": math.nan}, "t"),
        ({"kind": "tick", "t": -math.inf}, "t"),
        ({"kind": "tick", "t": "3"}, "t"),
        ({"kind": "flow.start", "total_bytes": 10 ** 400}, "total_bytes"),
        ({"kind": "span.end", "duration": False}, "duration"),
        ({"kind": "span.end", "span_id": [1]}, "span_id"),
        ({"kind": "span.begin", "parent_id": True}, "parent_id"),
        ({"kind": "migration.move", "to": 5}, "to"),
        ({"kind": "migration.move", "to": "ab"}, "to"),
        ({"kind": "migration.move", "to": [1, True]}, "to"),
        ({"kind": "recovery.rereplicate", "rank": 1.0}, "rank"),
        ({"kind": "server.fail", "lost_bytes": "1"}, "lost_bytes"),
        ({"kind": "serve.complete", "latency": math.inf}, "latency"),
        ({"kind": 5}, "kind"),
        ({"kind": ["a"]}, "kind"),
        # Fields a checker compares, counts or iterates: an ill-typed
        # one used to pass vacuously or report a bogus violation.
        ({"kind": "chaos.audit", "lost": "3"}, "lost"),
        ({"kind": "chaos.audit", "lost": True}, "lost"),
        ({"kind": "serve.queue", "depth": 9.0, "bound": 8}, "depth"),
        ({"kind": "kv.read", "key": "k", "client": "c", "vv": [["a", 1]]},
         "vv"),
        ({"kind": "kv.audit", "lost_acked": 1.0}, "lost_acked"),
        ({"kind": "version.advance", "version": True}, "version"),
        ({"kind": "transfer.ack", "oids": "12"}, "oids"),
        ({"kind": "kv.write.ack", "vv": {"a": 1.0}}, "vv"),
        ({"kind": "kv.read", "degraded": 1}, "degraded"),
        ({"kind": "kv.view.commit", "epoch": "2"}, "epoch"),
        ({"kind": "dirty.insert", "oid": [1]}, "oid"),
        ({"kind": "server.state", "rank": [3], "state": "off"}, "rank"),
    ])
    def test_rejects_naming_the_field(self, event, field):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            check_event(event)

    def test_repro_check_names_the_ill_typed_field(self, tmp_path, capsys):
        trace = tmp_path / "audit.jsonl"
        trace.write_text('{"kind":"chaos.audit","t":1.0,"lost":"3"}\n')
        assert main(["check", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "field 'lost'" in err

    def test_parse_error_carries_the_line(self):
        stream = io.StringIO('{"kind":"tick","t":1}\n\n'
                             '{"kind":"tick","t":NaN}\n')
        with pytest.raises(TraceParseError) as info:
            list(iter_jsonl(stream))
        assert info.value.line_no == 3
        assert "field 't'" in info.value.reason


class TestFieldsDeclared:
    def test_every_emitted_kind_has_a_docs_row(self):
        docs = (ROOT / "docs" / "OBSERVABILITY.md").read_text(
            encoding="utf-8")
        table = docs.split("### Event kinds", 1)[1].split("\n## ", 1)[0]
        rows = dict(re.findall(r"^\| `([a-z_.]+)` \|.*\| (.*) \|$", table,
                               flags=re.M))
        assert emitted_kinds() - {"demo.event"} <= set(rows)
        for kind, fields in FIELDS.items():
            if kind != "*":
                for field in fields:
                    assert f"**`{field}`**" in rows[kind], (kind, field)


class TestCheckersTrustFields:
    def test_invariants_makes_no_isinstance_call(self):
        """Field types are ``FIELDS``' to check, at parse; a checker
        that re-guards one gives a verdict of its own for each kind of
        malformed value."""
        path = ROOT / "src" / "repro" / "obs" / "invariants.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "isinstance"]
        assert calls == []


#: The commands ``tests/test_goldens.py`` pins, each at its smoke size.
COMMANDS = {
    "chaos": ["chaos", "--seed", "7", "--scale", "0.1"],
    "serve": ["serve", "--seed", "7"],
    "kvchurn": ["kvchurn", "--seed", "7"],
    "three-phase-selective": ["three-phase", "--mode", "selective",
                              "--scale", "0.05"],
    "three-phase-none": ["three-phase", "--mode", "none",
                         "--scale", "0.05"],
    "three-phase-original": ["three-phase", "--mode", "original",
                             "--scale", "0.05"],
    "three-phase-full": ["three-phase", "--mode", "full",
                         "--scale", "0.05"],
    "agility": ["agility"],
    "fig5": ["fig5"],
}


class TestEmittersConform:
    """Every event the pinned commands write parses: ``iter_jsonl`` runs
    ``check_event`` on each line."""

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_command_trace_parses(self, name, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(COMMANDS[name] + ["--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert sum(1 for _ in iter_jsonl(str(trace))) > 0

    def test_sweep_traces_parse(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--kind", "chaos", "--seeds", "0,1",
                     "--workers", "1", "--out", str(out), "--n", "10",
                     "--off-count", "4", "--scale", "0.03"]) == 0
        capsys.readouterr()
        assert sum(1 for _ in iter_jsonl(str(out / "merged.jsonl"))) > 0
