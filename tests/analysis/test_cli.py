"""CLI contract: exit codes, output shape, and the acceptance gates
(clean shipped tree; every positive fixture rejected with file:line,
rule id and fix hint)."""

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
    proc = run_simlint(str(fixture))
    assert proc.returncode == 1
    rule = fixture.stem.split("_")[0].upper()     # r8_bad -> R8
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
    proc = run_simlint(str(fixture))
    assert proc.returncode == 0, proc.stdout


def test_json_format_is_machine_readable():
    proc = run_simlint(str(FIXTURES / "r8_bad.py"), "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    f = doc["findings"][0]
    assert f["rule"] == "R8"
    assert {"path", "line", "col", "rule", "message", "hint"} <= set(f)


def test_missing_path_exits_2():
    proc = run_simlint("definitely/not/here")
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


def test_list_rules_and_version():
    proc = run_simlint("--list-rules")
    assert proc.returncode == 0
    assert proc.stdout.startswith("R8 ")
    version = run_simlint("--ruleset-version")
    assert version.returncode == 0
    assert version.stdout.strip().startswith("simlint-")
