"""CLI contract: exit codes, output shape, baseline flags, and the
acceptance gates (clean shipped tree; every positive fixture rejected
with file:line, rule id and fix hint)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
BAD_FIXTURES = sorted(FIXTURES.glob("*_bad.py"), key=lambda p: p.name)
GOOD_FIXTURES = sorted(p for p in FIXTURES.glob("*.py")
                       if not p.name.endswith("_bad.py"))


def run_simlint(*args: str, cwd: Path = REPO_ROOT):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=str(cwd), env=env, timeout=120)


def test_shipped_tree_is_clean():
    """Acceptance: `python -m repro.analysis src/repro` exits 0."""
    proc = run_simlint(str(REPO_ROOT / "src" / "repro"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


@pytest.mark.parametrize("fixture", BAD_FIXTURES,
                         ids=[p.stem for p in BAD_FIXTURES])
def test_positive_fixture_rejected_with_location_rule_hint(fixture):
    """Acceptance: each rule fixture exits non-zero and the report has
    file:line, the rule id and a fix hint."""
    proc = run_simlint(str(fixture), "--no-baseline")
    assert proc.returncode == 1
    rule = fixture.stem.split("_")[0].upper()     # r3_bad -> R3
    assert f"{fixture}:" in proc.stdout
    out_lines = [ln for ln in proc.stdout.splitlines() if f" {rule} " in ln]
    assert out_lines, f"no {rule} finding in output:\n{proc.stdout}"
    head = out_lines[0]
    loc = head.split(" ")[0]                      # path:line:col:
    parts = loc.rstrip(":").rsplit(":", 2)
    assert len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit()
    assert "hint:" in proc.stdout


@pytest.mark.parametrize("fixture", GOOD_FIXTURES,
                         ids=[p.stem for p in GOOD_FIXTURES])
def test_negative_fixture_accepted(fixture):
    proc = run_simlint(str(fixture), "--no-baseline")
    assert proc.returncode == 0, proc.stdout


def test_json_format_is_machine_readable():
    proc = run_simlint(str(FIXTURES / "r1_bad.py"), "--no-baseline",
                       "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["counts_by_rule"].get("R1", 0) >= 1
    f = doc["findings"][0]
    assert {"path", "line", "col", "rule", "message", "hint"} <= set(f)


def test_missing_path_exits_2():
    proc = run_simlint("definitely/not/here")
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


def test_update_baseline_round_trip(tmp_path):
    mod = tmp_path / "legacy.py"
    mod.write_text("# simlint: module=repro.net.cli_fixture\n"
                   "_pending = []\n")
    baseline = tmp_path / "simlint.baseline.json"

    first = run_simlint(str(mod), "--baseline", str(baseline),
                        "--update-baseline")
    assert first.returncode == 0
    once = baseline.read_bytes()

    # identical tree -> byte-identical baseline
    again = run_simlint(str(mod), "--baseline", str(baseline),
                        "--update-baseline")
    assert again.returncode == 0
    assert baseline.read_bytes() == once

    # with the baseline active, the legacy finding no longer gates
    gated = run_simlint(str(mod), "--baseline", str(baseline))
    assert gated.returncode == 0
    assert "1 baselined" in gated.stdout

    # fixing the code surfaces the stale entry as removable
    mod.write_text("# simlint: module=repro.net.cli_fixture\n"
                   "_pending = ()\n")
    stale = run_simlint(str(mod), "--baseline", str(baseline))
    assert stale.returncode == 0
    assert "stale baseline" in stale.stdout


def test_ruleset_mismatch_demands_baseline_refresh(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("x = 1\n")
    baseline = tmp_path / "b.json"
    baseline.write_text(json.dumps(
        {"format": 1, "ruleset": "simlint-0", "findings": {}}))
    proc = run_simlint(str(mod), "--baseline", str(baseline))
    assert proc.returncode == 2
    assert "simlint-0" in proc.stderr


def test_list_rules_and_version():
    proc = run_simlint("--list-rules")
    assert proc.returncode == 0
    for rule in ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"):
        assert rule in proc.stdout
    version = run_simlint("--ruleset-version")
    assert version.returncode == 0
    assert version.stdout.strip().startswith("simlint-")
