"""Suppression + baseline mechanics."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.findings import baseline_key
from repro.analysis.runner import analyze_paths, analyze_source

BAD = ("# simlint: module=repro.net.suppress_fixture\n"
       "_pending = []\n")


# -- suppressions ---------------------------------------------------------

def test_unsuppressed_finding_fires():
    assert [f.rule for f in analyze_source(BAD, path="x.py")] == ["R3"]


def test_same_line_suppression_silences():
    src = BAD.replace("_pending = []",
                      "_pending = []  # simlint: ok[R3] flushed per run")
    assert analyze_source(src, path="x.py") == []


def test_comment_above_suppression_silences():
    src = BAD.replace(
        "_pending = []",
        "# simlint: ok[R3] flushed per run by TestHarness.reset\n"
        "_pending = []")
    assert analyze_source(src, path="x.py") == []


def test_suppression_is_rule_specific():
    src = BAD.replace("_pending = []",
                      "_pending = []  # simlint: ok[R5] wrong rule")
    assert [f.rule for f in analyze_source(src, path="x.py")] == ["R3"]


def test_suppression_without_reason_is_reported():
    src = BAD.replace("_pending = []",
                      "_pending = []  # simlint: ok[R3]")
    rules = sorted(f.rule for f in analyze_source(src, path="x.py"))
    assert rules == ["R3", "SUP"]   # not silenced, and flagged as bad


def test_suppression_with_unknown_rule_is_reported():
    src = BAD.replace("_pending = []",
                      "_pending = []  # simlint: ok[R99] no such rule")
    rules = sorted(f.rule for f in analyze_source(src, path="x.py"))
    assert "SUP" in rules and "R3" in rules


def test_malformed_marker_is_reported():
    src = BAD + "_x = 1  # simlint: okay[R3] typo\n"
    assert any(f.rule == "SUP" and "malformed" in f.message
               for f in analyze_source(src, path="x.py"))


def test_marker_inside_string_literal_is_ignored():
    src = ("# simlint: module=repro.net.strings_fixture\n"
           "DOC = '# simlint: ok[R3] not a real marker'\n")
    assert analyze_source(src, path="x.py") == []


# -- baseline -------------------------------------------------------------

def _write_tree(tmp_path: Path) -> Path:
    mod = tmp_path / "legacy.py"
    mod.write_text(BAD)
    return tmp_path


def test_baselined_finding_does_not_gate(tmp_path):
    tree = _write_tree(tmp_path)
    first = analyze_paths([tree])
    assert [f.rule for f in first.findings] == ["R3"]

    baseline = Baseline.from_findings(first.findings)
    second = analyze_paths([tree], baseline=baseline)
    assert second.ok
    assert second.findings == []
    assert [f.rule for f in second.baselined] == ["R3"]
    assert second.stale_baseline == []


def test_new_finding_gates_despite_baseline(tmp_path):
    tree = _write_tree(tmp_path)
    baseline = Baseline.from_findings(analyze_paths([tree]).findings)
    (tree / "legacy.py").write_text(BAD + "_more = {}\n")
    report = analyze_paths([tree], baseline=baseline)
    assert not report.ok
    assert len(report.findings) == 1 and "_more" in report.findings[0].message
    assert len(report.baselined) == 1


def test_stale_baseline_entry_reported_removable(tmp_path):
    tree = _write_tree(tmp_path)
    report = analyze_paths([tree])
    baseline = Baseline.from_findings(report.findings)
    stale_key = baseline_key(report.findings[0])

    # fix the code: the baseline entry goes stale, nothing gates
    (tree / "legacy.py").write_text(
        "# simlint: module=repro.net.suppress_fixture\n_pending = ()\n")
    after = analyze_paths([tree], baseline=baseline)
    assert after.ok
    assert after.stale_baseline == [stale_key]


def test_baseline_survives_line_shift(tmp_path):
    """Content-addressed matching: adding lines above the finding does
    not break the baseline match."""
    tree = _write_tree(tmp_path)
    baseline = Baseline.from_findings(analyze_paths([tree]).findings)
    (tree / "legacy.py").write_text(
        BAD.replace("_pending = []",
                    "SHIFT_A = 1\nSHIFT_B = 2\n_pending = []"))
    report = analyze_paths([tree], baseline=baseline)
    assert report.ok and len(report.baselined) == 1


def test_baseline_round_trips_byte_identically(tmp_path):
    tree = _write_tree(tmp_path)
    findings = analyze_paths([tree]).findings
    path = tmp_path / "baseline.json"

    Baseline.from_findings(findings).save(path)
    once = path.read_bytes()
    Baseline.load(path).save(path)
    assert path.read_bytes() == once

    Baseline.from_findings(analyze_paths([tree]).findings).save(path)
    assert path.read_bytes() == once


def test_corrupt_baseline_raises_baseline_error(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{not json")
    with pytest.raises(BaselineError):
        Baseline.load(path)
    path.write_text('{"format": 99, "findings": {}}')
    with pytest.raises(BaselineError):
        Baseline.load(path)
    path.write_text('{"format": 1, "findings": {"k": 0}}')
    with pytest.raises(BaselineError):
        Baseline.load(path)
