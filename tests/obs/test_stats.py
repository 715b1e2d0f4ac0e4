"""Trace-stats guards: window validation and numeric-field hygiene."""

import json

import pytest

from repro.obs.stats import check_window, is_number, render_trace_stats
from repro.obs.trace import TraceParseError


def write_trace(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return path


class TestCheckWindow:
    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="empty time window"):
            check_window(5.0, 2.0)

    @pytest.mark.parametrize("since,until,flag",
                             [(float("nan"), None, "--since"),
                              (None, float("nan"), "--until"),
                              (float("nan"), 2.0, "--since"),
                              (1.0, float("nan"), "--until")])
    def test_nan_bound_rejected(self, since, until, flag):
        with pytest.raises(ValueError,
                           match=f"{flag} must be a number"):
            check_window(since, until)

    @pytest.mark.parametrize("since,until",
                             [(None, None), (1.0, None), (None, 1.0),
                              (1.0, 1.0), (1.0, 2.0)])
    def test_valid_windows_pass(self, since, until):
        check_window(since, until)

    def test_render_raises_before_reading_the_file(self, tmp_path):
        # The guard fires even for a missing file: bad arguments are
        # the user's bug, reported first.
        with pytest.raises(ValueError, match="empty time window"):
            render_trace_stats(str(tmp_path / "absent.jsonl"),
                               since=9.0, until=1.0)


class TestIsNumber:
    @pytest.mark.parametrize("value", [0, 1, -3, 0.0, 2.5])
    def test_numbers_accepted(self, value):
        assert is_number(value)

    @pytest.mark.parametrize("value", [True, False, None, "1", [1], {}])
    def test_non_numbers_rejected(self, value):
        assert not is_number(value)


class TestBoolTimestampRegression:
    """A corrupt event with ``"t": true`` must not slip through the
    window filter as ``t == 1`` (bool is an int in Python): the parse
    rejects it, naming the line and the field."""

    def test_bool_t_excluded_from_window(self, tmp_path):
        trace = write_trace(tmp_path / "run.jsonl", [
            {"kind": "tick", "t": 1.0},
            {"kind": "tick", "t": True},       # corrupt
            {"kind": "tick", "t": 2.0},
        ])
        with pytest.raises(TraceParseError, match="line 2: field 't'"):
            render_trace_stats(str(trace), since=0.0, until=10.0)

    def test_bool_bytes_not_summed(self, tmp_path):
        trace = write_trace(tmp_path / "run.jsonl", [
            {"kind": "flow", "t": 1.0, "nbytes": True},  # corrupt
            {"kind": "flow", "t": 2.0, "nbytes": 5e9},
        ])
        with pytest.raises(TraceParseError,
                           match="line 1: field 'nbytes'"):
            render_trace_stats(str(trace))
