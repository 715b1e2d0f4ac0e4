"""The instrumentation profiler: frame accounting, sim attribution,
export formats, determinism, and what is framed (``FRAMES`` /
``attach``)."""

import hashlib
import importlib
import json
from pathlib import Path
from time import perf_counter

import pytest

from repro.cli import main
from repro.obs import OBS
from repro.obs.profile import (
    FRAMES,
    ProfileError,
    Profiler,
    collapsed_stacks,
    load_profile,
    profile_document,
    render_profile,
)
from repro.simulation.engine import Simulator


class FakeClock:
    """Deterministic clock: each read advances by `step` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        t = self.t
        self.t += self.step
        return t


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFrameAccounting:
    def test_self_vs_cumulative(self):
        # Manual clock: push/pop boundaries land at known instants.
        clock = FakeClock(step=0.0)
        prof = Profiler(clock=clock)

        def at(t):
            clock.t = t

        at(10.0); prof.push("outer")          # noqa: E702
        at(12.0); prof.push("inner")          # noqa: E702
        at(17.0); prof.pop()                  # inner: 5 s  # noqa: E702
        at(20.0); prof.pop()                  # outer: 10 s total  # noqa: E702
        at(20.0); prof.stop()                 # noqa: E702

        flat = prof.flat()
        assert flat["inner"]["wall_s"] == 5.0
        assert flat["inner"]["self_s"] == 5.0
        assert flat["outer"]["wall_s"] == 10.0
        assert flat["outer"]["self_s"] == 5.0   # 10 minus inner's 5
        assert flat["outer"]["calls"] == 1

    def test_repeated_frames_aggregate(self):
        clock = FakeClock(step=1.0)   # every clock read advances 1 s
        prof = Profiler(clock=clock)
        for _ in range(3):
            prof.push("kernel.locate")
            prof.pop()
        prof.stop()
        flat = prof.flat()
        assert flat["kernel.locate"]["calls"] == 3
        assert flat["kernel.locate"]["wall_s"] == 3.0

    def test_same_name_at_different_depths_sums_in_flat(self):
        clock = FakeClock(step=0.0)
        prof = Profiler(clock=clock)

        def at(t):
            clock.t = t

        at(0.0); prof.push("a")               # noqa: E702
        at(0.0); prof.push("x")               # noqa: E702
        at(2.0); prof.pop()                   # a;x = 2  # noqa: E702
        at(3.0); prof.pop()                   # noqa: E702
        at(3.0); prof.push("x")               # noqa: E702
        at(4.0); prof.pop()                   # x = 1  # noqa: E702
        at(4.0); prof.stop()                  # noqa: E702
        flat = prof.flat()
        assert flat["x"]["calls"] == 2
        assert flat["x"]["wall_s"] == 3.0

    def test_pop_without_push_raises(self):
        prof = Profiler()
        with pytest.raises(RuntimeError, match="pop without"):
            prof.pop()

    def test_stop_closes_open_frames(self):
        prof = Profiler()
        prof.push("a")
        prof.push("b")
        prof.stop()
        assert prof.depth == 0
        assert prof.flat()["b"]["calls"] == 1

    def test_frame_context_manager_pops_on_error(self, ech10):
        # A framed entry point that raises: its frame closes and the
        # exception reaches the caller.
        prof = Profiler()
        OBS.profiler = prof
        try:
            with pytest.raises(KeyError, match="unknown version"):
                ech10.locate(42, version=99)
            assert prof.depth == 0
        finally:
            OBS.profiler = None
        prof.stop()
        assert prof.flat()["kernel.locate"]["calls"] == 1


class TestSimAttribution:
    def test_sim_delta_charged_to_innermost_frame(self):
        prof = Profiler(clock=FakeClock(step=0.0))
        prof.advance_sim(0.0)         # baseline only
        prof.push("engine:tick")
        prof.advance_sim(5.0)         # 5 sim-seconds inside the frame
        prof.pop()
        prof.advance_sim(7.0)         # 2 more at root
        prof.stop()
        flat = prof.flat()
        assert flat["engine:tick"]["sim_s"] == 5.0
        assert prof.total_sim == 7.0

    def test_backwards_clock_rebaselines(self):
        # A fresh Simulator in the same run restarts its clock at 0;
        # that must not charge negative sim time.
        prof = Profiler(clock=FakeClock(step=0.0))
        prof.advance_sim(0.0)
        prof.advance_sim(10.0)
        prof.advance_sim(0.0)         # new simulator
        prof.advance_sim(3.0)
        prof.stop()
        assert prof.total_sim == 13.0


class TestExport:
    def _document(self):
        clock = FakeClock(step=0.0)
        prof = Profiler(clock=clock)

        def at(t):
            clock.t = t

        at(0.0); prof.push("cmd:x")           # noqa: E702
        at(1.0); prof.push("kernel.locate")   # noqa: E702
        at(3.0); prof.pop()                   # noqa: E702
        at(4.0); prof.pop()                   # noqa: E702
        at(4.0); prof.stop()                  # noqa: E702
        return profile_document(prof, command="x")

    def test_document_shape(self):
        doc = self._document()
        assert doc["kind"] == "repro.profile"
        assert doc["total_wall_s"] == 4.0
        assert doc["root"]["name"] == "run"
        assert doc["flat"]["kernel.locate"]["self_s"] == 2.0

    def test_collapsed_stack_format(self):
        lines = collapsed_stacks(self._document()["root"])
        # flamegraph.pl's collapsed format: 'frame;frame <int>' with a
        # positive integer count (self-microseconds here).
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert all(frame for frame in stack.split(";"))
        assert "run;cmd:x;kernel.locate 2000000" in lines

    def test_load_profile_round_trip(self, tmp_path):
        doc = self._document()
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        loaded = load_profile(str(path))
        assert loaded["flat"]["cmd:x"]["wall_s"] == 4.0

    def test_load_profile_rejects_non_profiles(self, tmp_path):
        path = tmp_path / "not.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ProfileError, match="not a repro profile"):
            load_profile(str(path))
        with pytest.raises(ProfileError):
            load_profile(str(tmp_path / "missing.json"))

    def test_render_profile_attribution_line(self):
        text = render_profile(self._document(), top=5)
        assert "100.0% attributed" in text
        assert "kernel.locate" in text


class TestDeterminism:
    """Same-seed runs with --profile-out produce byte-identical traces
    (the acceptance criterion: wall-clock data never leaks into the
    deterministic surface)."""

    def test_same_seed_traces_identical_with_profiling(
            self, tmp_path, capsys):
        t_plain = tmp_path / "plain.jsonl"
        t_prof = tmp_path / "prof.jsonl"
        OBS.reset()   # fresh span counters: in-process reruns share OBS
        assert main(["chaos", "--seed", "11", "--scale", "0.05",
                     "--trace-out", str(t_plain)]) == 0
        OBS.reset()
        assert main(["chaos", "--seed", "11", "--scale", "0.05",
                     "--trace-out", str(t_prof),
                     "--profile-out", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert sha256(t_plain) == sha256(t_prof)
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["kind"] == "repro.profile"
        assert doc["flat"]          # something was attributed

    def test_profile_attributes_95_percent(self, tmp_path, capsys):
        # The acceptance bar: ≥95% of measured wall-clock lands on
        # named components (the command frame guarantees it).
        out = tmp_path / "p.json"
        assert main(["trace", "--which", "CC-a",
                     "--profile-out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        total = doc["total_wall_s"]
        attributed = total - doc["unattributed_s"]
        assert attributed / total >= 0.95
        # ...and the paper-relevant components all appear.
        flat = doc["flat"]
        assert "workload.generate" in flat
        assert any(k.startswith("policy:") for k in flat)


def _entry_points():
    """``(owner, attribute)`` of every FRAMES entry point, plus the
    engine's ``schedule_at`` / ``run_until``."""
    paths = [path for paths in FRAMES.values() for path in paths]
    paths += ["repro.simulation.engine:Simulator.schedule_at",
              "repro.simulation.engine:Simulator.run_until"]
    out = []
    for path in paths:
        module, _, dotted = path.partition(":")
        owner_name, _, attr = dotted.rpartition(".")
        owner = importlib.import_module(module)
        out.append((getattr(owner, owner_name) if owner_name else owner,
                    attr))
    return out


#: Taken at collection, before any test attaches a profiler.
ORIGINALS = {(owner, attr): vars(owner)[attr]
             for owner, attr in _entry_points()}


class TestAttach:
    """Profiling off means the product's own functions, unwrapped; the
    wrappers live only while a profiler is attached."""

    def assert_originals(self):
        for (owner, attr), original in ORIGINALS.items():
            assert vars(owner)[attr] is original, f"{owner}.{attr}"

    def test_nothing_wrapped_without_a_profiler(self):
        assert OBS.profiler is None
        self.assert_originals()
        for original in ORIGINALS.values():
            assert not hasattr(original, "__wrapped__")

    def test_detach_and_reset_put_every_original_back(self):
        OBS.profiler = Profiler()
        try:
            for (owner, attr), original in ORIGINALS.items():
                assert vars(owner)[attr].__wrapped__ is original
        finally:
            OBS.profiler = None
        self.assert_originals()
        OBS.profiler = Profiler()
        OBS.reset()
        assert OBS.profiler is None
        self.assert_originals()

    def test_attaching_b_over_a_leaves_only_b(self, ech10):
        a, b = Profiler(), Profiler()
        OBS.profiler = a
        try:
            OBS.profiler = b
            for (owner, attr), original in ORIGINALS.items():
                assert vars(owner)[attr].__wrapped__ is original
            ech10.locate(42)
        finally:
            OBS.profiler = None
        self.assert_originals()
        assert "kernel.locate" not in a.flat()
        assert b.flat()["kernel.locate"]["calls"] == 1

    def test_event_fired_after_detach_runs_once_unframed(self):
        prof = Profiler()
        fired = []
        sim = Simulator()
        OBS.profiler = prof
        try:
            sim.schedule(1.0, fired.append, "x")
        finally:
            OBS.profiler = None
        sim.run()
        assert fired == ["x"]
        prof.stop()
        assert prof.flat() == {}

    @pytest.mark.parametrize("path", [
        "repro.core.elastic:ElasticConsistentHash.no_such_method",
        "repro.core.elastic:NoSuchClass.locate",
        "repro.no_such_module:locate",
    ])
    def test_bad_frames_path_raises_at_attach(self, monkeypatch, path):
        monkeypatch.setitem(FRAMES, "planted", (path,))
        with pytest.raises((AttributeError, ImportError)):
            OBS.profiler = Profiler()
        assert OBS.profiler is None
        self.assert_originals()


class TestFramesGolden:
    """The frame tree (names, calls, sim seconds; wall time excepted)
    of two CI smokes, as profiled before ``FRAMES`` replaced the inline
    guards and decorators — less the ``kernel.locate`` frames of the
    writes, which place with one slot-table gather per batch since
    ``write_many``."""

    GOLDEN = Path(__file__).with_name("profile_frames.json")

    @staticmethod
    def frames(node):
        out = {"name": node["name"], "calls": node["calls"],
               "sim_s": node["sim_s"]}
        if node.get("children"):
            out["children"] = [TestFramesGolden.frames(c)
                               for c in node["children"]]
        return out

    @pytest.mark.parametrize("command", [
        "chaos --seed 7 --scale 0.1",
        "three-phase --mode selective --scale 0.05",
    ])
    def test_frame_tree_matches_golden(self, command, tmp_path, capsys):
        path = tmp_path / "p.json"
        OBS.reset()
        assert main(command.split() + ["--profile-out", str(path)]) == 0
        capsys.readouterr()
        got = self.frames(json.loads(path.read_text())["root"])
        assert got == json.loads(self.GOLDEN.read_text())[command]


class TestNullProfilerOverhead:
    def _per_call(self, fn, n):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        return (perf_counter() - t0) / n

    def test_locate_unaffected_when_off(self, ech10):
        assert OBS.profiler is None
        base = self._per_call(lambda: ech10.locate(42), 2_000)
        # No assertion against `base` itself (machine-dependent): a
        # smoke check that locate runs with no profiler attached.
        assert base > 0
        assert ech10.locate(42) == ech10.locate(42)

    def test_push_pop_cost_when_on(self):
        prof = Profiler()
        def cycle():
            prof.push("frame")
            prof.pop()
        cost = self._per_call(cycle, 20_000)
        prof.stop()
        # Active profiling pays two clock reads + dict work per frame;
        # bounded loosely (20 us) so slow CI never flakes.
        assert cost < 2e-5, f"active push/pop {cost * 1e9:.0f} ns"
