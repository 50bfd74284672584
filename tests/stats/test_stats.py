"""Tests for counters, the release tracker and table formatting."""

from repro.stats.metrics import Counters, ReleaseTracker
from repro.stats.report import format_table, format_value


def test_counters_start_zero_and_export():
    c = Counters()
    d = c.as_dict()
    assert all(v == 0 for v in d.values())
    assert "naks_sent" in d and "probes_sent" in d


def test_counters_add_aggregates():
    a = Counters(naks_sent=3, updates_sent=1)
    b = Counters(naks_sent=2, rate_requests_sent=5)
    a.add(b)
    assert a.naks_sent == 5
    assert a.rate_requests_sent == 5
    assert a.updates_sent == 1


def test_feedback_total():
    c = Counters(naks_sent=1, rate_requests_sent=2, updates_sent=3,
                 joins_sent=4, leaves_sent=5)
    assert c.feedback_total == 15


def test_release_tracker_percent():
    t = ReleaseTracker()
    assert t.percent_complete == 100.0
    t.record(True)
    t.record(True)
    t.record(False)
    assert t.checks == 3 and t.complete == 2
    assert abs(t.percent_complete - 66.67) < 0.1


def test_format_value_styles():
    assert format_value(0.0) == "0"
    assert format_value(1234.5) == "1234"
    assert format_value(3.14159) == "3.14"
    assert format_value(0.12345) == "0.1235"
    assert format_value("abc") == "abc"
    assert format_value(42) == "42"


def test_format_table_alignment():
    out = format_table("My Table", ["name", "value"],
                       [["alpha", 1], ["b", 23456]])
    lines = out.splitlines()
    assert lines[0] == "My Table"
    assert lines[1] == "========"
    assert "name" in lines[2] and "value" in lines[2]
    widths = {len(line) for line in lines[2:]}
    assert len(widths) <= 2  # header/rule/rows aligned


def test_format_table_empty_rows():
    out = format_table("Empty", ["a"], [])
    assert "Empty" in out


def test_format_value_non_finite():
    # NaN is a value no run measured (a cut-short run's throughput)
    assert format_value(float("nan")) == "✗"
    assert format_value(float("inf")) == "inf"
    assert format_value(float("-inf")) == "-inf"


def test_format_value_negative():
    assert format_value(-0.5) == "-0.5000"
    assert format_value(-3.14159) == "-3.14"
    assert format_value(-1234.5) == "-1234"
    assert format_value(-0.0) == "0"


def test_format_table_with_non_finite_cells():
    out = format_table("T", ["m", "v"],
                       [["a", float("nan")], ["b", float("inf")],
                        ["c", -0.25]])
    lines = out.splitlines()
    assert any(line.endswith("✗") for line in lines)     # NaN
    assert any("inf" in line for line in lines)
    widths = {len(line) for line in lines[2:]}
    assert len(widths) <= 2
