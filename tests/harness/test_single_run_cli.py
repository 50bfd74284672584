"""The commands that run one transfer build the fleet's RunSpec: a spec
no world can be built from is unusable input (exit 2, one stderr line),
`--chaos-seed N` runs the chaos experiment's seed-N cell, and
`--fault-plan FILE` runs a spec that carries the plan.  `report
--metrics-out DIR` saves the four artifacts of the run it prints."""

import hashlib

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.experiments import plan_experiment
from repro.workloads.spec import RunSpec


@pytest.mark.parametrize("argv", [
    ["report", "lan", "--protocol", "bogus"],
    ["report", "wan", "--wan-test", "9"],
    ["report", "lan", "--receivers", "0"],
    ["health", "report", "chaos", "--protocol", "tcp"],
    ["--chaos-seed", "3", "--receivers", "0"],
], ids=" ".join)
def test_unbuildable_run_is_unusable_input(argv, capsys):
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err


def test_chaos_seed_runs_the_chaos_experiments_cell(monkeypatch, capsys):
    built = []
    build = RunSpec.build

    def recording(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(RunSpec, "build", recording)
    assert cli_main(["--chaos-seed", "4"]) == 0
    [spec] = built
    cells = {cell.scenario_params["seed"]: cell
             for cell in plan_experiment("chaos")}
    assert spec.content_hash() == cells[4].content_hash()
    assert "survivors ok" in capsys.readouterr().out


def test_fault_plan_run_is_built_from_its_spec(monkeypatch, capsys,
                                               tmp_path):
    """The saved plan travels in the spec, and the report is the one
    pinned when the command set the plan after building the world."""
    from repro.faults.plan import FaultPlan
    plan = FaultPlan.random(10, n_receivers=3, horizon_us=1_000_000)
    path = str(tmp_path / "plan.json")
    plan.save(path)
    built = []
    build = RunSpec.build

    def recording(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(RunSpec, "build", recording)
    assert cli_main(["--fault-plan", path]) == 0
    [spec] = built
    assert spec.scenario_params["plan"] == plan.to_dict()
    assert build(spec)[0].fault_plan == plan
    out = capsys.readouterr().out
    assert "restarted: [2]" in out and out.endswith("survivors ok\n")
    assert hashlib.blake2b(out.encode(), digest_size=16).hexdigest() == \
        "31e8f58bfa6a7bede5aa9ea235c1121d"


def test_report_metrics_out_writes_the_four_artifacts(tmp_path, capsys):
    """`report --metrics-out DIR` saves exactly its three artifacts, the
    saved summary is the one it printed, and there is no other profile
    command."""
    out = tmp_path / "artifacts"
    assert cli_main(["report", "lan", "--receivers", "2", "--nbytes",
                     "200000", "--seed", "7", "--metrics-out",
                     str(out)]) == 0
    stdout = capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "lan.perfetto.json", "lan.series.jsonl", "lan.summary.txt"]
    summary = (out / "lan.summary.txt").read_text()
    assert "profiler: hottest callback sites" in summary
    # headline, blank line, summary, blank line, the `wrote` list
    body = stdout.split("\n\n", 1)[1]
    assert body.rsplit("\n\nwrote ", 1)[0] + "\n" == summary
    assert cli_main(["perf", "profile", "lan"]) == 2
