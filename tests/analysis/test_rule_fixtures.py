"""Fixture-driven self-test: the rule has positive and negative
snippets, annotated in-place, and catches its hazard in the real tree.

Each ``fixtures/*.py`` file declares the module identity simlint should
assume (``# simlint: module=...``) and marks every line that must fire
with ``# expect: R<n>``.  The harness asserts exact agreement in both
directions -- an unexpected finding fails just as hard as a missed one,
so the fixtures double as a false-positive regression net.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.kernel.host as host_mod
from repro.analysis.runner import analyze_source

FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[A-Z0-9, ]+)")

RULE_FIXTURES = sorted(FIXTURES.glob("*.py"), key=lambda p: p.name)
HOST_PY = Path(host_mod.__file__)


def expected_findings(path: Path) -> set[tuple[int, str]]:
    out: set[tuple[int, str]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            for rule in m.group("rules").split(","):
                if rule.strip():
                    out.add((lineno, rule.strip()))
    return out


def test_fixture_inventory_covers_every_rule():
    """The rule has a positive and a negative fixture file."""
    names = {p.stem for p in RULE_FIXTURES}
    assert "r8_bad" in names
    assert any(name.startswith("r8_") and not name.endswith("_bad")
               for name in names)


@pytest.mark.parametrize("path", RULE_FIXTURES,
                         ids=[p.stem for p in RULE_FIXTURES])
def test_fixture(path: Path):
    findings = analyze_source(path.read_text(), path=str(path))
    got = {(f.line, f.rule) for f in findings}
    want = expected_findings(path)
    missing = want - got
    unexpected = got - want
    assert not missing, f"rule did not fire: {sorted(missing)}"
    assert not unexpected, \
        f"unexpected findings (false positives): {sorted(unexpected)}"
    if path.stem.endswith("_bad"):
        assert want, f"{path.name} is a positive fixture without expects"
    else:
        assert not want and not got


def test_findings_carry_location_rule_and_hint():
    bad = FIXTURES / "r8_bad.py"
    findings = analyze_source(bad.read_text(), path=str(bad))
    assert findings, "positive fixture produced nothing"
    for f in findings:
        assert f.path == str(bad)
        assert f.line > 0 and f.col > 0
        assert f.rule == "R8"
        assert f.hint, "every finding must carry a fix hint"


def test_findings_sorted_and_deterministic():
    bad = FIXTURES / "r8_bad.py"
    one = analyze_source(bad.read_text(), path=str(bad))
    two = analyze_source(bad.read_text(), path=str(bad))
    assert one == two
    assert one == sorted(one)


def test_a_pause_that_moves_the_clock_is_caught_in_the_real_host():
    """The hazard DESIGN §5f planted, which tier-1 passes: a host pause
    that advances ``sim.now`` instead of the host's CPU."""
    source = HOST_PY.read_text()
    assert analyze_source(source, path=str(HOST_PY)) == []
    planted = source.replace(
        "        self._cpu_busy_until = max(self._cpu_busy_until,\n"
        "                                   self.sim.now + "
        "max(0, int(duration_us)))\n",
        "        self.sim.now += max(0, int(duration_us))\n")
    assert planted != source
    [finding] = analyze_source(planted, path=str(HOST_PY))
    assert finding.rule == "R8" and "repro.kernel.host" in finding.message
