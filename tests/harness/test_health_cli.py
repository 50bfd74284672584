"""The ``health`` CLI family: report and sweep (with its per-cell
anomaly flags), and the ``protocol-health`` experiment that gates the
pinned runs.

Exit-code contract (shared with ``diff``): 0 = healthy
/ clean sweep, 1 = run failed / anomalies flagged,
2 = unusable input.  The sweep test doubles as the quick-scale
acceptance check for the paper's §5.2 claim: loss-driven feedback at
the sender stays flat as the group grows and total feedback stays
under a per-group-size ceiling.
"""

import json

import pytest

from repro.core.receiver import HRMCReceiver
from repro.harness.cli import ANOMALY_GATES, flag_anomalies
from repro.harness.cli import main as cli_main

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


def test_sweep_json_mode(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = cli_main(["health", "sweep", "--grid", "2,3", "--nbytes", "60000",
                   "--no-cache", "--json", "--out", str(out)])
    assert rc == 0
    stdout, stderr = capsys.readouterr()
    assert [c["group_size"] for c in json.loads(stdout)["cells"]] == [2, 3]
    assert stdout == out.read_text()
    assert "wrote sweep report" in stderr


def test_committed_wan_gate_can_tell_a_whole_span_nak_claim(monkeypatch,
                                                            capsys):
    """The pinned runs fail `protocol-health` when receivers re-request
    the data they parked; the failed claims name the two WAN gates."""
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


def test_health_usage_error():
    assert cli_main(["health"]) == 2
    assert cli_main(["health", "bogus"]) == 2


# -- sweep --------------------------------------------------------------

@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One quick-scale fig14 sweep shared by the sweep tests."""
    tmp = tmp_path_factory.mktemp("health-sweep")
    out = tmp / "sweep.json"
    rc = cli_main(["health", "sweep", "--experiment", "fig14",
                   "--grid", "2,3,5", "--nbytes", "150000",
                   "--no-cache", "--out", str(out)])
    return {"rc": rc, "out": out}


def test_sweep_exit_clean(swept):
    assert swept["rc"] == 0


def test_sweep_reproduces_flat_feedback_trend(swept):
    """Paper §5.2 at quick scale: sender-visible feedback does not
    implode as the group grows.  Every cell loses the same one packet,
    so its independence of group size is asserted directly -- one NAK
    per loss event, and what the sender hears beyond one UPDATE
    exchange per member (NAKs + rate requests) does not move with n.
    The per-member part is linear by construction, hence the absolute
    ceilings per group size instead of an exponent gate.  A receiver
    that re-requests data it holds shows up in both ceilings (49
    packets / 65 536 B at n = 2 when every out-of-order arrival
    re-NAKed the parked segments)."""
    report = json.loads(swept["out"].read_text())
    cells = report["cells"]
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


def test_sweep_rejects_bad_grid(capsys):
    assert cli_main(["health", "sweep", "--grid", "2,x"]) == 2
    assert cli_main(["health", "sweep", "--grid", "0,3"]) == 2


# -- anomaly flags ------------------------------------------------------

def _cells(**overrides):
    base = {"effectiveness": 0.7, "implosion_index": 2.0,
            "redundant_ratio": 0.2, "worst_lag_us": 50_000}
    cells = []
    for i in range(5):
        cell = dict(base, label=f"n={i}")
        for key, values in overrides.items():
            if i in values:
                cell[key] = values[i]
        cells.append(cell)
    return cells


def test_anomaly_flags_implosion_rise_not_drop():
    """Direction-aware: a high implosion index regresses, a low one is
    an improvement and must NOT be flagged."""
    flags = flag_anomalies(_cells(implosion_index={0: 20.0, 1: 0.1}))
    assert [f["cell"] for f in flags] == ["n=0"]
    assert flags[0]["metric"] == "implosion_index"
    assert flags[0]["direction"] == "high"
    assert flags[0]["median"] == 2.0 and flags[0]["threshold"] == 0.75


def test_anomaly_flags_effectiveness_drop_not_rise():
    flags = flag_anomalies(_cells(effectiveness={2: 0.1, 3: 0.99}))
    assert [f["cell"] for f in flags] == ["n=2"]
    assert flags[0]["direction"] == "low"


def test_anomaly_needs_three_cells():
    assert flag_anomalies(_cells()[:2]) == []


def test_anomaly_all_equal_cells_are_clean():
    assert flag_anomalies(_cells()) == []


def test_anomaly_redundant_ratio_gate():
    assert flag_anomalies(_cells(redundant_ratio={4: 0.3})) == []  # +50 %
    flags = flag_anomalies(_cells(redundant_ratio={4: 0.31}))
    assert [f["cell"] for f in flags] == ["n=4"]
    assert flags[0]["threshold"] == 0.5


def test_default_thresholds_gate_the_issue_metrics():
    assert {"effectiveness", "redundant_ratio",
            "implosion_index"} <= set(ANOMALY_GATES)
