"""Mutation tests: seed the PR 4 bug back into the real tree and prove
the analyzer catches it.

PR 4's worker-safety fix replaced a module-global packet-id counter in
``repro.net.packet`` with per-Simulator allocation after the global had
silently broken cross-run determinism and poisoned the content-addressed
cache.  R3 exists so that bug class cannot come back; these tests
re-introduce it verbatim and assert the rule fires.
"""

from __future__ import annotations

from pathlib import Path

import repro.net.packet as packet_mod
from repro.analysis.runner import analyze_source

PACKET_PY = Path(packet_mod.__file__)

#: the PR 4 bug, as it looked before the fix
COUNTER_MUTATION = '''

_next_packet_id = 0


def new_packet_id() -> int:
    global _next_packet_id
    _next_packet_id += 1
    return _next_packet_id
'''


def _analyze_packet(source: str):
    return analyze_source(source, path=str(PACKET_PY),
                          module="repro.net.packet")


def test_shipped_packet_module_is_clean():
    findings = _analyze_packet(PACKET_PY.read_text())
    assert findings == []


def test_reintroduced_packet_id_counter_is_caught_by_r3():
    mutated = PACKET_PY.read_text() + COUNTER_MUTATION
    findings = _analyze_packet(mutated)
    r3 = [f for f in findings if f.rule == "R3"]
    assert r3, "R3 failed to catch the module-global packet-id counter"
    assert any("global _next_packet_id" in f.line_text for f in r3)
    # the finding points into the mutated region, with a usable hint
    assert all(f.path.endswith("packet.py") for f in r3)
    assert any("per run" in f.hint for f in r3)


def test_mutable_module_registry_is_caught_by_r3():
    mutated = PACKET_PY.read_text() + "\n_in_flight: dict = {}\n"
    findings = _analyze_packet(mutated)
    assert any(f.rule == "R3" and "_in_flight" in f.message
               for f in findings)


def test_counter_outside_protocol_packages_not_r3_scoped():
    """The same counter in, say, the harness is not R3's business."""
    source = "_n = 0\n\ndef bump():\n    global _n\n    _n += 1\n"
    findings = analyze_source(source, path="x.py",
                              module="repro.harness.progress")
    assert [f for f in findings if f.rule == "R3"] == []
