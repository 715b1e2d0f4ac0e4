"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.n == 10 and args.replicas == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "p=2" in out
        assert "minimum power : 2/10" in out

    def test_layout(self, capsys):
        assert main(["layout", "--n", "10", "--objects", "2000"]) == 0
        out = capsys.readouterr().out
        assert "equal-work layout" in out
        assert "primary" in out and "secondary" in out

    def test_agility(self, capsys):
        assert main(["agility", "--objects", "400"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "shrink lag" in out

    def test_three_phase(self, capsys):
        assert main(["three-phase", "--mode", "selective",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "peak throughput" in out
        assert "migrated" in out

    def test_chaos(self, capsys):
        assert main(["chaos", "--seed", "7", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "# chaos report" in out
        assert "## fault timeline" in out
        assert "verdict: **OK**" in out

    def test_chaos_plan_file(self, tmp_path, capsys):
        from repro.faults import FaultPlan
        path = tmp_path / "plan.json"
        FaultPlan.three_phase_default(seed=3).dump(str(path))
        assert main(["chaos", "--scale", "0.05",
                     "--plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: **OK**" in out

    def test_chaos_plan_rejecting_ranks_is_clean_error(self, tmp_path,
                                                       capsys):
        from repro.faults import FaultPlan
        path = tmp_path / "plan.json"
        FaultPlan.three_phase_default(seed=3, n=25, off_count=8).dump(
            str(path))
        with pytest.raises(SystemExit):
            main(["chaos", "--n", "10", "--plan", str(path)])

    def test_fig5(self, capsys):
        assert main(["fig5", "--objects-v1", "2000",
                     "--objects-v2", "2500"]) == 0
        out = capsys.readouterr().out
        assert "version1" in out
        assert "re-integrated" in out

    def test_trace(self, capsys):
        assert main(["trace", "--which", "CC-a"]) == 0
        out = capsys.readouterr().out
        assert "Table II row" in out
        assert "primary-selective" in out

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["three-phase", "--mode", "bogus"])

    SERVE_SMALL = ["--seed", "11", "--n", "6", "--off-count", "2",
                   "--clients", "40", "--users", "400000",
                   "--duration", "30", "--resize-at", "10",
                   "--resize-back-at", "20"]

    def test_serve(self, capsys):
        assert main(["serve", *self.SERVE_SMALL]) == 0
        out = capsys.readouterr().out
        assert "# serve report" in out
        assert "## client-perceived latency" in out
        assert "p999" in out
        assert "verdict: **OK**" in out

    def test_serve_missed_slo_exits_1(self, capsys):
        assert main(["serve", *self.SERVE_SMALL,
                     "--slo-p99", "1e-9"]) == 1
        out = capsys.readouterr().out
        assert "MISSED" in out
        assert "verdict: **DEGRADED**" in out

    def test_serve_bad_parameters_are_clean_error(self):
        with pytest.raises(SystemExit, match="repro serve"):
            main(["serve", "--n", "6", "--off-count", "6"])

    def test_serve_unknown_controller_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--controller", "bogus"])

    @pytest.mark.parametrize("flag, value, name", [
        ("--audit-every", "0", "audit_every"),
        ("--churn-every", "-3", "churn_every"),
        ("--audit-every", "nan", "audit_every"),
        ("--duration", "0", "duration"),       # was: zero ops, "OK"
        ("--duration", "inf", "duration"),
    ])
    def test_kvchurn_bad_period_is_clean_error(self, flag, value, name):
        with pytest.raises(
                SystemExit,
                match=f"repro kvchurn: {name} must be > 0") as exc:
            main(["kvchurn", flag, value])
        assert exc.value.code not in (0, None)


class TestBadInputIsAMessage:
    """Bad values for a command's own options end the process with
    one ``repro <cmd>: ...`` line and a non-zero code — raised as
    ``SystemExit`` from one place in ``main()``, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["three-phase", "--scale", "0"], "scale must be positive"),
        (["layout", "--n", "0"], "cannot hold"),
        (["fig5", "--objects-v1", "0"], "degenerate"),
        (["info", "--n", "1", "--replicas", "3"], "cannot hold"),
        (["layout", "--n", "1", "--replicas", "3"], "cannot hold"),
        (["chaos", "--audit-every", "0"], "audit_every must be > 0"),
        (["chaos", "--audit-every", "-1"], "audit_every must be > 0"),
        # Non-finite values: were an OverflowError / KeyError traceback,
        # a vacuous 3 600-tick run exiting 0, or "MISSED (p99 > nans)".
        (["three-phase", "--scale", "nan"], "scale must be positive"),
        (["three-phase", "--scale", "inf"], "scale must be positive"),
        (["chaos", "--scale", "nan"], "scale must be positive"),
        (["chaos", "--scale", "inf"], "scale must be positive"),
        (["serve", "--duration", "nan"], "resize_back_at < duration"),
        (["serve", "--duration", "inf"], "duration must be > 0"),
        (["serve", "--slo-p99", "nan"], "slo_p99 must be > 0"),
        (["serve", "--slo-p99", "inf"], "slo_p99 must be > 0"),
        # A legitimate scale the 3 600 simulated s cannot drain: was
        # KeyError: 'phase2'.
        (["three-phase", "--scale", "6"],
         "phase2 unfinished after 3600 simulated s (completed: phase1)"),
        # Every gap 0.0: the arrival chain rescheduled itself at one
        # instant forever.  nan was "cannot schedule at non-finite time".
        (["serve", "--per-user-rate", "inf"],
         "per_user_rate must be > 0 and finite (got inf)"),
        (["serve", "--per-user-rate", "nan"],
         "per_user_rate must be > 0 and finite (got nan)"),
        (["serve", "--per-user-rate", "0"], "per_user_rate must be > 0"),
        # An empty dataset: was exit 0 with "shrink lag: original 0
        # server-s" (Figure 2's point is that the original lags) and an
        # all-zero distribution.
        (["agility", "--objects", "0"], "objects must be >= 1 (got 0)"),
        (["agility", "--objects", "-5"], "objects must be >= 1 (got -5)"),
        (["layout", "--objects", "0"], "objects must be >= 1 (got 0)"),
        # Was silently the CPU count.
        (["sweep", "--workers", "0"], "workers must be >= 1 (got 0)"),
        # Passed `<= 0`, never fired, and spun the parent on the wait.
        (["sweep", "--timeout", "nan"],
         "task_timeout must be > 0 and finite (got nan)"),
        (["sweep", "--since", "nan"], "--since must be a number (got nan)"),
    ])
    def test_one_line_and_nonzero_exit(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        text = str(exc.value.code)
        assert text.startswith(f"repro {argv[0]}: ")
        assert message in text and "\n" not in text
        assert capsys.readouterr().out == ""

    def test_sinks_are_detached_on_the_way_out(self, tmp_path):
        from repro.obs import OBS
        with pytest.raises(SystemExit):
            main(["three-phase", "--scale", "0", "--stats",
                  "--trace-out", str(tmp_path / "t.jsonl"),
                  "--profile-out", str(tmp_path / "p.json")])
        assert OBS.bus.active is False and OBS.profiler is None


class TestObservabilityFlags:
    def test_trace_out_writes_parseable_jsonl(self, tmp_path, capsys):
        from repro.obs import OBS
        from repro.obs.trace import read_jsonl

        path = tmp_path / "run.jsonl"
        assert main(["three-phase", "--scale", "0.05",
                     "--trace-out", str(path), "--stats"]) == 0
        assert not OBS.bus.active     # sink detached on the way out
        assert OBS.profiler is None

        events = read_jsonl(str(path))
        assert events, "trace must not be empty"
        kinds = {str(e["kind"]) for e in events}
        assert "engine.tick" in kinds
        assert "bandwidth.solve" in kinds
        assert "migration.move" in kinds
        for e in events:
            assert "kind" in e and "t" in e

        out = capsys.readouterr().out
        assert "metrics — repro three-phase" in out
        assert "migration.bytes" in out

    @pytest.mark.parametrize("argv", [
        ["three-phase", "--scale", "0.05", "--stats"],
        ["serve", "--duration", "20", "--resize-at", "6",
         "--resize-back-at", "12", "--stats"],
    ], ids=["three-phase", "serve"])
    def test_stats_output_is_same_seed_deterministic(self, argv, capsys):
        # The registry holds simulation state only, so --stats prints
        # the same bytes every run (the perf.* rows used to differ).
        from repro.obs import OBS

        outs = []
        for _ in range(2):
            OBS.reset()
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        OBS.reset()
        assert "metrics — repro" in outs[0]
        assert outs[0] == outs[1]

    def test_stats_subcommand(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["three-phase", "--scale", "0.05",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()

        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.tick" in out
        assert "migration.move" in out

        assert main(["stats", str(path), "--kind", "migration."]) == 0
        out = capsys.readouterr().out
        assert "migration.move" in out
        assert "engine.tick" not in out

    def test_stats_on_empty_match(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["stats", str(path)]) == 0
        assert "no matching trace events" in capsys.readouterr().out

    def test_stats_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_trace_out_bad_path_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "no_such_dir" / "t.jsonl"
        assert main(["info", "--trace-out", str(bad)]) == 2
        assert "cannot open trace file" in capsys.readouterr().err

    def test_stats_time_window(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["three-phase", "--scale", "0.05",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()

        # The first tick lands at t=1; a window past it excludes the
        # t=0 flow.start but keeps the engine ticks.  Windows are
        # half-open [since, until): the t=3 tick is outside [1, 3).
        assert main(["stats", str(path), "--since", "1.0",
                     "--until", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "engine.tick" in out
        assert "t = [1, 2] s" in out

        # Exclusive upper bound: [1, 2) keeps only the t=1 tick, so
        # adjacent windows partition the trace without double counting.
        assert main(["stats", str(path), "--since", "1.0",
                     "--until", "2.0"]) == 0
        assert "t = [1, 1] s" in capsys.readouterr().out

        assert main(["stats", str(path), "--since", "1e9"]) == 0
        assert "no matching trace events" in capsys.readouterr().out

    def test_stats_top_n(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["three-phase", "--scale", "0.05",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()

        assert main(["stats", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        # Only the biggest byte-mover survives; the (byteless)
        # engine.tick kind cannot be it.
        assert "flow." in out or "migration" in out
        assert "engine.tick" not in out

    def test_check_flag_live_clean_run(self, capsys):
        assert main(["three-phase", "--scale", "0.05", "--check"]) == 0
        err = capsys.readouterr().err
        assert "all invariants hold" in err

    def test_check_subcommand_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_report_subcommand(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["three-phase", "--scale", "0.05",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "## Invariants" in out


class TestCorruptTraceHandling:
    """Corrupt/truncated JSONL must produce a clean exit 2 with the
    offending line number — never a traceback."""

    @pytest.fixture()
    def corrupt(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"kind":"engine.tick","t":1.0}\n'
                        '{"kind":"flow.start","t":2.0,'  # truncated line
                        '\n'
                        '{"kind":"engine.tick","t":3.0}\n')
        return str(path)

    def test_stats_reports_line_number(self, corrupt, capsys):
        assert main(["stats", corrupt]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_check_reports_line_number(self, corrupt, capsys):
        assert main(["check", corrupt]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_report_reports_line_number(self, corrupt, capsys):
        assert main(["report", corrupt]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_non_object_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.jsonl"
        path.write_text('[1, 2, 3]\n')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "object" in err


class TestMalformedTraceRejected:
    """A trace field the readers read that lacks its declared type
    fails every offline reader the same way: exit 2, one line naming
    the line number and the field — never a crash, a silent skip, or
    two readers disagreeing about the same event."""

    CASES = {
        "bool-duration": (
            ['{"kind":"span.begin","t":1.0,"name":"x","span_id":1}',
             '{"kind":"span.end","t":2.0,"name":"x","span_id":1,'
             '"duration":true}'],
            "line 2: field 'duration'"),
        "int-to": (
            ['{"kind":"migration.move","t":1.0,"nbytes":100,"to":5}'],
            "line 1: field 'to'"),
        "str-to": (
            ['{"kind":"migration.move","t":1.0,"nbytes":100,"to":"ab"}'],
            "line 1: field 'to'"),
        "infinite-t": (
            ['{"kind":"flow.start","t":1.0}',
             '{"kind":"flow.start","t":Infinity}'],
            "line 2: field 't'"),
        "nan-t": (
            ['{"kind":"flow.start","t":NaN}',
             '{"kind":"flow.start","t":1.0}'],
            "line 1: field 't'"),
    }

    @pytest.mark.parametrize("command",
                             ["stats", "report", "timeline", "check"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_naming_line_and_field(self, tmp_path, capsys, case,
                                          command):
        lines, expected = self.CASES[case]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert expected in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.kind == "chaos" and args.seeds == "0,1,2,3"
        assert args.workers is None and args.out == "sweep-out"

    def test_selftest_style_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--kind", "chaos", "--seeds", "0,1",
                     "--workers", "2", "--out", str(out),
                     "--n", "4", "--off-count", "1",
                     "--scale", "0.02"]) == 0
        report = capsys.readouterr().out
        assert "# sweep report" in report
        assert "verdict: **OK**" in report
        assert (out / "sweep.json").exists()
        assert (out / "merged.jsonl").exists()
        assert (out / "chaos-s000" / "trace.jsonl").exists()
        assert (out / "chaos-s001" / "outcome.json").exists()

    def test_sweep_plan_file(self, tmp_path, capsys):
        from repro.faults import FaultPlan
        path = tmp_path / "plan.json"
        FaultPlan.three_phase_default(seed=3).dump(str(path))
        assert main(["sweep", "--seeds", "5", "--workers", "1",
                     "--out", str(tmp_path / "sweep"),
                     "--scale", "0.02", "--n", "10",
                     "--plan", str(path)]) == 0
        assert "verdict: **OK**" in capsys.readouterr().out

    def test_bad_seeds_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="bad --seeds"):
            main(["sweep", "--seeds", "1,x", "--out", str(tmp_path)])

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="duplicate seed"):
            main(["sweep", "--seeds", "1,1", "--out", str(tmp_path)])

    def test_inverted_window_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="empty time window"):
            main(["sweep", "--seeds", "0", "--out", str(tmp_path),
                  "--since", "9", "--until", "1"])

    def test_bad_plan_file_is_clean_error(self, tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="bad --plan"):
            main(["sweep", "--seeds", "0", "--out", str(tmp_path / "s"),
                  "--plan", str(bad)])

    @pytest.mark.parametrize("command", ["chaos", "kvchurn"])
    def test_bad_plan_file_names_its_command(self, command, tmp_path):
        # One --plan loader serves sweep, chaos and kvchurn.
        with pytest.raises(SystemExit,
                           match=f"repro {command}: bad --plan file"):
            main([command, "--plan", str(tmp_path / "missing.json")])


class TestStatsWindowGuard:
    def test_inverted_window_is_clean_error(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        trace.write_text('{"kind": "tick", "t": 1.0}\n')
        with pytest.raises(SystemExit, match="empty time window"):
            main(["stats", str(trace), "--since", "5", "--until", "2"])

    @pytest.mark.parametrize("flag", ["--since", "--until"])
    @pytest.mark.parametrize("reader", ["stats", "report", "timeline"])
    def test_nan_bound_is_clean_error(self, reader, flag, tmp_path,
                                      capsys):
        # A NaN bound compares false with every time: stats and report
        # rendered the whole trace as unwindowed, timeline died with
        # "cannot convert float NaN to integer".
        trace = tmp_path / "run.jsonl"
        trace.write_text('{"kind": "tick", "t": 1.0}\n')
        with pytest.raises(SystemExit) as exc:
            main([reader, str(trace), flag, "nan"])
        assert exc.value.code == f"repro {reader}: {flag} must be a " \
                                 f"number (got nan)"
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


class TestProfileCommand:
    @pytest.fixture()
    def profile_json(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["chaos", "--seed", "7", "--scale", "0.05",
                     "--profile-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_profile_out_writes_document(self, profile_json):
        import json
        doc = json.loads(profile_json.read_text())
        assert doc["kind"] == "repro.profile"
        assert doc["command"] == "chaos"
        assert "cmd:chaos" in doc["flat"]

    def test_profile_out_noted_in_report(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["info", "--profile-out", str(path)]) == 0
        assert "profile written to" in capsys.readouterr().out

    def test_profile_subcommand_renders_hotspots(self, profile_json,
                                                 capsys):
        assert main(["profile", str(profile_json), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "% attributed" in out
        assert "self(s)" in out or "self_s" in out or "cmd:chaos" in out

    def test_profile_collapsed_file(self, profile_json, tmp_path,
                                    capsys):
        collapsed = tmp_path / "stacks.txt"
        assert main(["profile", str(profile_json),
                     "--collapsed", str(collapsed)]) == 0
        capsys.readouterr()
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0 and stack

    def test_profile_collapsed_stdout(self, profile_json, capsys):
        assert main(["profile", str(profile_json),
                     "--collapsed", "-"]) == 0
        out = capsys.readouterr().out
        assert "run;cmd:chaos" in out

    def test_profile_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.json")]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_profile_wrong_shape_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something.else"}')
        assert main(["profile", str(path)]) == 2
        assert "not a repro profile" in capsys.readouterr().err

    @staticmethod
    def _profile(path, **fields):
        doc = {"kind": "repro.profile", "version": 1, "command": "x",
               "total_wall_s": 1.0, "total_sim_s": 0.0,
               "unattributed_s": 0.0,
               "root": {"name": "run", "calls": 1, "wall_s": 1.0,
                        "self_s": 0.0, "sim_s": 0.0},
               "flat": {"x": {"calls": 1, "wall_s": 1.0, "self_s": 1.0,
                              "sim_s": 0.0}}}
        doc.update(fields)
        path.write_text(json.dumps(doc))
        return str(path)

    MALFORMED = [
        {"flat": {"x": {}}},
        {"flat": {"x": 1}},
        {"flat": {"x": {"calls": True, "wall_s": 1.0, "self_s": 1.0,
                        "sim_s": 0.0}}},
        {"flat": {"x": {"calls": 1, "wall_s": float("nan"),
                        "self_s": 1.0, "sim_s": 0.0}}},
        {"total_wall_s": "abc"},
        {"total_sim_s": float("inf")},
        {"unattributed_s": None},
    ]

    @pytest.mark.parametrize("fields", MALFORMED)
    def test_malformed_profile_is_clean_error(self, tmp_path, capsys,
                                              fields):
        bad = self._profile(tmp_path / "bad.json", **fields)
        assert main(["profile", bad]) == 2
        assert capsys.readouterr().err.startswith("repro: ")

    @pytest.mark.parametrize("fields", MALFORMED)
    def test_compare_refuses_malformed_profile(self, tmp_path, capsys,
                                               fields):
        # compare reads bench files only: a profile, well-formed or
        # not, is one line and exit 2 against a good baseline.
        good = tmp_path / "good.json"
        good.write_text('{"benches": {"x": {"median_s": 1.0}}}')
        bad = self._profile(tmp_path / "bad.json", **fields)
        assert main(["compare", str(good), bad]) == 2
        err = capsys.readouterr().err
        assert err == f"repro: {bad}: no bench timings (expected a " \
            "'benches' or 'data' table of seconds)\n"


class TestTimelineCommand:
    @pytest.fixture()
    def chaos_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["chaos", "--seed", "7", "--scale", "0.05",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_timeline_renders_report(self, chaos_trace, capsys):
        assert main(["timeline", str(chaos_trace)]) == 0
        out = capsys.readouterr().out
        assert "Flow latency" in out
        assert "client" in out
        assert "Critical paths" in out

    def test_timeline_writes_artifacts(self, chaos_trace, tmp_path,
                                       capsys):
        import hashlib
        import json
        digests = []
        for name in ("a", "b"):
            js = tmp_path / f"{name}.json"
            assert main(["timeline", str(chaos_trace),
                         "--json", str(js)]) == 0
            doc = json.loads(js.read_text())
            assert doc["kind"] == "repro.analytics"
            digests.append(hashlib.sha256(js.read_bytes()).hexdigest())
        capsys.readouterr()
        # same trace, two invocations: byte-identical artifacts
        assert digests[0] == digests[1]

    def test_timeline_check_only_validates_saved_document(
            self, chaos_trace, tmp_path, capsys):
        js = tmp_path / "analytics.json"
        assert main(["timeline", str(chaos_trace),
                     "--json", str(js)]) == 0
        capsys.readouterr()
        assert main(["timeline", str(js), "--check-only"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "repro.analytics" in out

    def test_timeline_window_flags_are_half_open(self, chaos_trace,
                                                 capsys):
        assert main(["timeline", str(chaos_trace),
                     "--since", "0", "--until", "30"]) == 0
        out = capsys.readouterr().out
        assert "window [0, 30)" in out

    def test_corrupt_trace_is_clean_error_with_line_number(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "tick", "t": 1.0}\n{oops\n')
        assert main(["timeline", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_empty_trace_is_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["timeline", str(empty)]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_inverted_window_rejected(self, chaos_trace):
        with pytest.raises(SystemExit, match="empty time window"):
            main(["timeline", str(chaos_trace),
                  "--since", "9", "--until", "1"])


class TestReportWindow:
    def test_report_since_until_filters_presentation(self, tmp_path,
                                                     capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["chaos", "--seed", "7", "--scale", "0.05",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path),
                     "--since", "0", "--until", "30"]) == 0
        out = capsys.readouterr().out
        assert "window [0, 30)" in out
        # invariants still run over the full stream
        assert "full stream" in out


    def test_boolean_timestamp_is_not_one_second(self, tmp_path, capsys):
        # `"t": true` is malformed, not t = 1 s: every offline reader
        # rejects the trace at parse, naming the line and the field.
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind": "resize.begin", "t": true, "from_active": 10, '
            '"to_active": 6}\n'
            '{"kind": "resize.end", "t": 5.0, "from_active": 10, '
            '"to_active": 6}\n')
        for command in ("report", "stats", "timeline"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert "line 1: field 't'" in err, command


class TestCompareCommand:
    @staticmethod
    def _bench_json(path, median):
        import json
        path.write_text(json.dumps(
            {"benches": {"bench_locate": {"median_s": median}}}))
        return path

    def test_compare_identical_is_ok(self, tmp_path, capsys):
        a = self._bench_json(tmp_path / "a.json", 1.0)
        b = self._bench_json(tmp_path / "b.json", 1.0)
        assert main(["compare", str(a), str(b)]) == 0
        assert "Verdict: OK" in capsys.readouterr().out

    def test_compare_regression_exits_1(self, tmp_path, capsys):
        a = self._bench_json(tmp_path / "a.json", 1.0)
        b = self._bench_json(tmp_path / "b.json", 2.0)
        assert main(["compare", str(a), str(b),
                     "--threshold", "25"]) == 1
        out = capsys.readouterr().out
        assert "Verdict: REGRESSED" in out
        assert "bench_locate" in out

    def test_compare_threshold_is_percent(self, tmp_path, capsys):
        a = self._bench_json(tmp_path / "a.json", 1.0)
        b = self._bench_json(tmp_path / "b.json", 2.0)
        assert main(["compare", str(a), str(b),
                     "--threshold", "200"]) == 0
        capsys.readouterr()

    def test_compare_missing_path_is_clean_error(self, tmp_path, capsys):
        a = self._bench_json(tmp_path / "a.json", 1.0)
        assert main(["compare", str(a),
                     str(tmp_path / "nope.json")]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_compare_negative_threshold_rejected(self, tmp_path):
        a = self._bench_json(tmp_path / "a.json", 1.0)
        with pytest.raises(SystemExit, match="threshold"):
            main(["compare", str(a), str(a), "--threshold", "-5"])

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_compare_non_finite_threshold_rejected(self, tmp_path, capsys,
                                                   threshold):
        # nan compares false with every change and inf is never
        # exceeded: either would pass this 50x slowdown.
        a = self._bench_json(tmp_path / "a.json", 1.0)
        b = self._bench_json(tmp_path / "b.json", 50.0)
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(a), str(b), "--threshold", threshold])
        assert exc.value.code == ("repro compare: threshold must be a "
                                  "finite number >= 0")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("median", ["NaN", "-5", "Infinity"])
    def test_compare_refuses_bad_fresh_timing(self, tmp_path, capsys,
                                              median):
        a = self._bench_json(tmp_path / "a.json", 1.0)
        b = tmp_path / "b.json"
        b.write_text('{"data": {"benchmarks/x.py::bench_locate": '
                     '{"median_s": %s}}}' % median)
        assert main(["compare", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"repro: {b}: bench 'benchmarks/x.py::bench_locate' has "
            f"timing ")
        assert captured.err.count("\n") == 1

    def test_sweep_profile_rollup(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rollup = tmp_path / "rollup.json"
        assert main(["sweep", "--kind", "chaos", "--seeds", "0,1",
                     "--workers", "2", "--out", str(out),
                     "--n", "4", "--off-count", "1", "--scale", "0.02",
                     "--profile-out", str(rollup)]) == 0
        report = capsys.readouterr().out
        assert "profile rollup" in report
        assert (out / "chaos-s000" / "profile.json").exists()
        import json
        doc = json.loads(rollup.read_text())
        assert doc["kind"] == "repro.profile"
        assert sorted(doc["per_task"]) == ["chaos-s000", "chaos-s001"]
        # The rollup is a valid input to `repro profile`.
        capsys.readouterr()
        assert main(["profile", str(rollup)]) == 0
        assert "task:chaos" in capsys.readouterr().out


class TestEmptyTraceRefusal:
    """`repro report`/`repro check` on an empty trace: a clear message
    and exit 2, not a vacuous success."""

    @pytest.fixture()
    def empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        return str(path)

    def test_report_refuses_empty_trace(self, empty, capsys):
        assert main(["report", empty]) == 2
        err = capsys.readouterr().err
        assert "empty trace (0 events)" in err
        assert "Traceback" not in err

    def test_check_refuses_empty_trace(self, empty, capsys):
        assert main(["check", empty]) == 2
        err = capsys.readouterr().err
        assert "empty trace (0 events)" in err


class TestStatsTopTieBreak:
    def test_tied_kinds_rank_in_name_order(self, tmp_path, capsys):
        # Three kinds, all tied on bytes (none) and count (1): --top
        # must slice them in name order, every run.
        path = tmp_path / "ties.jsonl"
        path.write_text('{"kind":"zeta","t":1.0}\n'
                        '{"kind":"alpha","t":2.0}\n'
                        '{"kind":"mid","t":3.0}\n')
        assert main(["stats", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "mid" in out
        assert "zeta" not in out

    def test_bytes_rank_beats_name(self, tmp_path, capsys):
        path = tmp_path / "ranked.jsonl"
        path.write_text('{"kind":"small","t":1.0,"nbytes":10}\n'
                        '{"kind":"big","t":2.0,"nbytes":1000000000}\n')
        assert main(["stats", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "big" in out and "small" not in out
