"""The ``health`` CLI family: report (with bounds gating) and sweep.

Exit-code contract (shared with ``diff``): 0 = healthy
/ clean sweep, 1 = run failed / bound violated / anomalies flagged,
2 = unusable input.  The sweep test doubles as the quick-scale
acceptance check for the paper's §5.2 claim: loss-driven feedback at
the sender stays flat as the group grows and total feedback stays
under a per-group-size ceiling.
"""

import json
import os

import pytest

from repro.core.receiver import HRMCReceiver
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
    """With --json stdout is the payload and nothing else: the lines
    saying what was written and that the bounds held go to stderr."""
    out = tmp_path / "health.json"
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps({"wan": {"effectiveness_min": 0.01}}))
    rc = cli_main(["health", "report", "wan", *WAN_ARGS, "--json",
                   "--out", str(out), "--bounds", str(loose)])
    assert rc == 0
    stdout, stderr = capsys.readouterr()
    payload = json.loads(stdout)
    assert payload["implosion"]["naks_at_sender"] > 0
    assert stdout == out.read_text()
    assert "wrote health payload" in stderr
    assert "health bounds ok" in stderr


def test_sweep_json_mode(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = cli_main(["health", "sweep", "--grid", "2,3", "--nbytes", "60000",
                   "--no-cache", "--json", "--out", str(out)])
    assert rc == 0
    stdout, stderr = capsys.readouterr()
    assert [c["group_size"] for c in json.loads(stdout)["cells"]] == [2, 3]
    assert stdout == out.read_text()
    assert "wrote sweep report" in stderr


def test_report_bounds_gate_passes_and_trips(tmp_path, capsys):
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(
        {"wan": {"effectiveness_min": 0.01, "unresolved_max": 0}}))
    assert cli_main(["health", "report", "wan", *WAN_ARGS,
                     "--bounds", str(loose)]) == 0
    capsys.readouterr()
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(
        {"wan": {"effectiveness_min": 0.999,
                 "redundant_ratio_max": 0.0}}))
    assert cli_main(["health", "report", "wan", *WAN_ARGS,
                     "--bounds", str(tight)]) == 1
    err = capsys.readouterr().err
    assert "HEALTH BOUND VIOLATED" in err
    assert "effectiveness" in err


def test_report_bounds_unusable_inputs(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli_main(["health", "report", "wan", *WAN_ARGS,
                     "--bounds", str(missing)]) == 2
    noscenario = tmp_path / "noscenario.json"
    noscenario.write_text(json.dumps({"lan": {}}))
    assert cli_main(["health", "report", "wan", *WAN_ARGS,
                     "--bounds", str(noscenario)]) == 2
    # malformed entries are refused before the transfer runs, with a
    # one-line reason: not an object, a bad key, a non-numeric limit
    capsys.readouterr()
    for entry in ([1], {"effectiveness": 0.5},
                  {"effectiveness_min": "0.5"},
                  {"unresolved_max": True}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"wan": entry}))
        assert cli_main(["health", "report", "wan", *WAN_ARGS,
                         "--bounds", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (entry, err)


COMMITTED_BOUNDS = os.path.join(os.path.dirname(__file__), "..", "..",
                                "HEALTH_BOUNDS.json")
#: the WAN scenario the CI `protocol-health` job gates
PINNED_WAN = ["--receivers", "5", "--nbytes", "500000", "--seed", "1"]


def test_committed_bounds_cover_pinned_scenarios():
    """The repo-root HEALTH_BOUNDS.json (the CI gate file) names both
    pinned scenarios and gates the two ISSUE metrics."""
    doc = json.loads(open(COMMITTED_BOUNDS).read())
    assert "lan" in doc and "wan" in doc
    assert "effectiveness_min" in doc["wan"]
    assert "redundant_ratio_max" in doc["wan"]


def test_committed_wan_gate_can_tell_a_whole_span_nak_claim(monkeypatch,
                                                            capsys):
    """The pinned WAN run passes the committed bounds, and stops
    passing when receivers re-request the data they parked."""
    gate = ["health", "report", "wan", *PINNED_WAN,
            "--bounds", COMMITTED_BOUNDS]
    assert cli_main(gate) == 0
    capsys.readouterr()
    note_gap = HRMCReceiver._note_gap

    def whole_span(self, end):     # claim from rcv_nxt, past the frontier
        self._claimed_to = self.rcv_nxt
        note_gap(self, end)

    monkeypatch.setattr(HRMCReceiver, "_note_gap", whole_span)
    assert cli_main(gate) == 1
    err = capsys.readouterr().err
    assert "redundant_ratio" in err and "implosion_index" in err


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
    so a power-law fit of the loss-driven feedback would be a fit of a
    constant; its independence of group size is asserted directly --
    one NAK per loss event, and what the sender hears beyond one
    UPDATE exchange per member (NAKs + rate requests) does not move
    with n.  The per-member part is linear by construction, hence the
    absolute ceilings per group size instead of an exponent gate.  A
    receiver that re-requests data it holds shows up in both ceilings
    (49 packets / 65 536 B at n = 2 when every out-of-order arrival
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
    # and the per-loss-event implosion index does not explode with n
    imp = report["fits"]["implosion_vs_group"]
    assert imp["n"] == 3 and imp["exponent"] < 0.5
    for c in cells:
        n = c["group_size"]
        assert c["feedback_at_sender"] <= 2 * n + 2     # 5 / 6 / 8 today
        assert c["retrans_bytes"] <= 2 * 1460 * c["loss_events"]  # 1460


def test_sweep_rejects_bad_grid(capsys):
    assert cli_main(["health", "sweep", "--grid", "2,x"]) == 2
    assert cli_main(["health", "sweep", "--grid", "0,3"]) == 2
