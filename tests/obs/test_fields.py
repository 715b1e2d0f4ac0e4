"""The declared trace fields: ``FIELDS`` / ``check_event`` accept what
the emitters write, reject what the readers cannot read, and say so in
docs/OBSERVABILITY.md."""

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
    ])
    def test_rejects_naming_the_field(self, event, field):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            check_event(event)

    def test_parse_error_carries_the_line(self):
        stream = io.StringIO('{"kind":"tick","t":1}\n\n'
                             '{"kind":"tick","t":NaN}\n')
        with pytest.raises(TraceParseError) as info:
            list(iter_jsonl(stream))
        assert info.value.line_no == 3
        assert "field 't'" in info.value.reason


class TestFieldsDeclared:
    def test_every_declared_kind_is_emitted(self):
        declared = set(FIELDS) - {"*"}
        assert declared <= emitted_kinds(), declared - emitted_kinds()

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


#: The CI commands, each at its smoke size.
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
    """Every event the CI commands write parses: ``iter_jsonl`` runs
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
