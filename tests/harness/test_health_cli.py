"""The ``health report`` subcommand, and the committed gates that read
protocol health: the ``protocol-health`` experiment's pinned runs and
the ``scaling`` experiment's section 5.2 feedback cells.

Exit-code contract: 0 = the run delivered, 1 = it failed, 2 = unusable
input.
"""

import json

import pytest

from repro.core.receiver import HRMCReceiver
from repro.fleet.worker import run_spec
from repro.harness.cli import main as cli_main
from repro.harness.experiments import FEEDBACK_GROUP_SIZES, feedback_spec
from repro.obs.health import health_cell

WAN_ARGS = ["--receivers", "3", "--nbytes", "200000", "--seed", "21"]


@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    """One wan run shared by the report tests."""
    tmp = tmp_path_factory.mktemp("health-cli")
    out = tmp / "health.json"
    rc = cli_main(["health", "report", "wan", *WAN_ARGS, "--out", str(out)])
    assert rc == 0
    return {"out": out}


def test_report_writes_payload(reported):
    payload = json.loads(reported["out"].read_text())
    assert payload["group_size"] == 3
    assert payload["suppression"]["naks_sent"] > 0


def test_report_text_tables(capsys):
    rc = cli_main(["health", "report", "wan", *WAN_ARGS])
    assert rc == 0
    text = capsys.readouterr().out
    assert "NAK-suppression ledger" in text
    assert "implosion & repair economics" in text
    assert "recovery lag (us)" in text


def test_report_json_mode(tmp_path, capsys):
    """With --json stdout is the payload and nothing else: the line
    saying what was written goes to stderr."""
    out = tmp_path / "health.json"
    rc = cli_main(["health", "report", "wan", *WAN_ARGS, "--json",
                   "--out", str(out)])
    assert rc == 0
    stdout, stderr = capsys.readouterr()
    payload = json.loads(stdout)
    assert payload["implosion"]["naks_at_sender"] > 0
    assert stdout == out.read_text()
    assert "wrote health payload" in stderr


def test_committed_wan_gate_can_tell_a_whole_span_nak_claim(monkeypatch,
                                                            capsys):
    """The pinned runs fail `protocol-health` when receivers re-request
    the data they parked, and so do the section 5.2 feedback cells of
    `scaling`; the failed claims name the two WAN gates and the
    feedback ceilings."""
    note_gap = HRMCReceiver._note_gap

    def whole_span(self, end):     # claim from rcv_nxt, past the frontier
        self._claimed_to = self.rcv_nxt
        note_gap(self, end)

    monkeypatch.setattr(HRMCReceiver, "_note_gap", whole_span)
    assert cli_main(["protocol-health", "--no-cache"]) == 1
    failed = [ln for ln in capsys.readouterr().err.splitlines()
              if ln.startswith("CLAIM FAILED protocol-health: ")]
    assert any("wan: redundant_ratio" in ln for ln in failed), failed
    assert any("wan: implosion_index" in ln for ln in failed), failed
    assert cli_main(["scaling", "--no-cache"]) == 1
    failed = [ln for ln in capsys.readouterr().err.splitlines()
              if ln.startswith("CLAIM FAILED scaling: ")]
    assert any("<= 2n + 2" in ln for ln in failed), failed
    assert any("2 x 1460 per loss event" in ln for ln in failed), failed


def test_a_loss_free_wan_cell_fails_its_loss_claim(monkeypatch, capsys):
    """Seed 2001 gives the wan cell no loss: the report says the cell
    had nothing to repair, not only that suppression read 0."""
    from repro.workloads.spec import RunSpec
    wan = RunSpec.wan.__func__

    def shifted(cls, *args, seed, **kwargs):
        return wan(cls, *args, seed=seed + 2000, **kwargs)

    monkeypatch.setattr(RunSpec, "wan", classmethod(shifted))
    assert cli_main(["protocol-health", "--no-cache"]) == 1
    failed = [ln for ln in capsys.readouterr().err.splitlines()
              if ln.startswith("CLAIM FAILED protocol-health: ")]
    assert any("wan: the cell saw loss (implosion.loss_events 0 >= 1)"
               in ln for ln in failed), failed


def test_health_usage_error():
    assert cli_main(["health"]) == 2
    assert cli_main(["health", "bogus"]) == 2


# -- section 5.2 feedback cells ----------------------------------------

@pytest.fixture(scope="module")
def swept():
    """The `scaling` experiment's three feedback cells, one run each."""
    results = {n: run_spec(feedback_spec(n)) for n in FEEDBACK_GROUP_SIZES}
    return {"ok": [res.ok for res in results.values()],
            "cells": [health_cell(res.health, group_size=n)
                      for n, res in results.items()]}


def test_sweep_exit_clean(swept):
    assert swept["ok"] == [True, True, True]


def test_sweep_reproduces_flat_feedback_trend(swept):
    """Paper §5.2 at quick scale: sender-visible feedback does not
    implode as the group grows.  Every cell loses the same one packet,
    so its independence of group size is asserted directly -- one NAK
    per loss event, and what the sender hears beyond one UPDATE
    exchange per member (NAKs + rate requests) does not move with n.
    The per-member part is linear by construction, hence the absolute
    ceilings per group size instead of an exponent gate.  The same
    assertions are claims of the `scaling` experiment."""
    cells = swept["cells"]
    assert [c["group_size"] for c in cells] == [2, 3, 5]
    for c in cells:
        assert c["naks_at_sender"] == c["loss_events"] \
            == cells[0]["loss_events"]
    assert len({c["feedback_at_sender"] - c["group_size"]
                for c in cells}) == 1, "feedback beyond the per-member " \
                                       "UPDATEs grows with the group"
    for c in cells:
        n = c["group_size"]
        assert c["feedback_at_sender"] <= 2 * n + 2     # 5 / 6 / 8 today
        assert c["retrans_bytes"] <= 2 * 1460 * c["loss_events"]  # 1460
