"""Protocol health in `report`, and the committed gates that read it:
the ``protocol-health`` experiment's pinned runs and the ``scaling``
experiment's section 5.2 feedback cells.

`report` prints the run's health tables, and ``--metrics-out DIR``
saves the health payload as ``<scenario>.health.json``.
"""

import contextlib
import io
import json

import pytest

from repro.core.receiver import HRMCReceiver
from repro.fleet.worker import run_spec
from repro.harness.cli import main as cli_main
from repro.obs.health import payload
from repro.workloads.spec import RunSpec

WAN_ARGS = ["--receivers", "3", "--nbytes", "200000", "--seed", "21"]


@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    """One wan run shared by the report tests: its stdout and the
    health payload it saved."""
    out = tmp_path_factory.mktemp("health-cli")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli_main(["report", "wan", *WAN_ARGS, "--metrics-out", str(out)])
    assert rc == 0
    return {"stdout": stdout.getvalue(), "health": out / "wan.health.json"}


def test_report_writes_payload(reported):
    doc = json.loads(reported["health"].read_text())
    assert doc["group_size"] == 3
    assert doc["suppression"]["naks_sent"] > 0


def test_report_text_tables(reported):
    """The health tables come after the headline, in order, and close
    the report: only the saved payload's path follows them."""
    text = reported["stdout"]
    tables = [text.index(title) for title in (
        "throughput=", "NAK-suppression ledger",
        "implosion & repair economics", "recovery lag (us)")]
    assert tables == sorted(tables), tables
    # nothing between the last table and the saved payload's path
    tail = text[tables[-1]:]
    assert tail.count("\n\n") == 1
    assert tail.endswith(f"\n\nwrote health: {reported['health']}\n")


def test_report_json_mode(reported, capsys):
    """The report's JSON form is the saved payload, and it is the
    fleet cell's.  There is no `--json` stdout mode."""
    spec = RunSpec.wan(test=2, receivers=3, bandwidth_bps=10e6, seed=21,
                       nbytes=200_000)
    assert json.loads(reported["health"].read_text()) == \
        payload(run_spec(spec))
    with pytest.raises(SystemExit) as exc:
        cli_main(["report", "wan", *WAN_ARGS, "--json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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
    """`health` is no command and no experiment: `report` reads health."""
    assert cli_main(["health"]) == 2
    assert cli_main(["health", "bogus"]) == 2
