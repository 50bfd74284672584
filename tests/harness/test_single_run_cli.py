"""`report` is the one command that runs one transfer, and it builds the
fleet's RunSpec: a spec no world can be built from is unusable input
(exit 2, one stderr line), `report chaos --seed N` runs the chaos
experiment's seed-N cell, and `report chaos --fault-plan FILE` runs a
spec that carries the plan.  `report` runs its spec bare, as the fleet
runs the cell, and `report --metrics-out DIR` saves the run's health
payload alone."""

import hashlib
import json

import pytest

from repro.fleet.worker import run_spec
from repro.harness.cli import main as cli_main
from repro.harness.experiments import plan_experiment
from repro.obs.health import payload
from repro.workloads.spec import RunSpec


@pytest.fixture
def built(monkeypatch):
    """The specs the command builds its world from, in order."""
    specs = []
    build = RunSpec.build

    def recording(spec):
        specs.append(spec)
        return build(spec)

    monkeypatch.setattr(RunSpec, "build", recording)
    return specs


@pytest.mark.parametrize("argv", [
    ["report", "lan", "--protocol", "bogus"],
    ["report", "wan", "--wan-test", "9"],
    ["report", "lan", "--receivers", "0"],
    ["report", "chaos", "--protocol", "tcp"],
    ["report", "chaos", "--seed", "3", "--receivers", "0"],
], ids=" ".join)
def test_unbuildable_run_is_unusable_input(argv, capsys):
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err


def test_chaos_seed_runs_the_chaos_experiments_cell(built, capsys):
    assert cli_main(["report", "chaos", "--seed", "4", "--receivers", "3",
                     "--nbytes", "250000"]) == 0
    [spec] = built
    cells = {cell.scenario_params["seed"]: cell
             for cell in plan_experiment("chaos")}
    assert spec.content_hash() == cells[4].content_hash()
    assert "\nsurvivors ok\n" in capsys.readouterr().out


def _fault_block(stdout: str) -> str:
    """The report's second paragraph: what the fault plan did."""
    return stdout.split("\n\n")[1] + "\n"


def test_fault_plan_run_is_built_from_its_spec(built, capsys, tmp_path):
    """The saved plan travels in the spec, and the report's fault block
    is the one pinned when the command set the plan after building the
    world."""
    from repro.faults.plan import FaultPlan
    plan = FaultPlan.random(10, n_receivers=3, horizon_us=1_000_000)
    path = str(tmp_path / "plan.json")
    plan.save(path)
    assert cli_main(["report", "chaos", "--fault-plan", path,
                     "--receivers", "3", "--nbytes", "250000"]) == 0
    [spec] = built
    assert spec.scenario_params["plan"] == plan.to_dict()
    assert spec.build()[0].fault_plan == plan
    block = _fault_block(capsys.readouterr().out)
    assert "restarted: [2]" in block and block.endswith("survivors ok\n")
    assert hashlib.blake2b(block.encode(), digest_size=16).hexdigest() == \
        "31e8f58bfa6a7bede5aa9ea235c1121d"


def test_a_fault_plan_needs_chaos_a_loadable_file_and_no_seed(tmp_path,
                                                              capsys):
    from repro.faults.plan import FaultPlan
    path = str(tmp_path / "plan.json")
    FaultPlan.random(10, n_receivers=3, horizon_us=1_000_000).save(path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"actions": [{"kind": "meteor_strike"}]}')
    listed = tmp_path / "listed.json"
    listed.write_text("[]")
    for argv in (["report", "lan", "--fault-plan", path],
                 ["report", "wan", "--fault-plan", path],
                 ["report", "chaos", "--fault-plan", path, "--seed", "3"],
                 ["report", "chaos", "--fault-plan", str(bad)],
                 ["report", "chaos", "--fault-plan", str(listed)],
                 ["report", "chaos", "--fault-plan", str(tmp_path / "no")],
                 # the plan crashes receiver 2 of a 2-receiver LAN
                 ["report", "chaos", "--fault-plan", path,
                  "--receivers", "2", "--nbytes", "50000"]):
        assert cli_main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (argv, err)


def test_the_removed_single_run_commands_are_refused(capsys):
    """`health report`, `--chaos-seed` and a top-level `--fault-plan`
    ran one transfer each; `report` is the one command that does now,
    and there is no profile command."""
    assert cli_main(["health", "report", "wan"]) == 2
    assert cli_main(["perf", "profile", "lan"]) == 2
    for flag in ("--chaos-seed", "--fault-plan"):
        with pytest.raises(SystemExit) as exc:    # argparse's own exit
            cli_main([flag, "4"])
        assert exc.value.code == 2, flag
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["lan", "--receivers", "2", "--nbytes", "200000", "--seed", "7"],
    ["wan", "--receivers", "3", "--nbytes", "150000", "--seed", "21"],
], ids=lambda argv: argv[0])
def test_report_is_a_bare_run(argv, built, monkeypatch, tmp_path):
    """`report` runs its spec as the fleet runs the spec's cell: no
    observer, and exactly the cell's engine events.  `--metrics-out
    DIR` saves the cell's health payload and nothing else."""
    import repro.harness.cli as cli
    runs = []
    run_transfer = cli.run_transfer

    def recording(scenario, **kwargs):
        runs.append((kwargs, run_transfer(scenario, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "run_transfer", recording)
    out = tmp_path / "artifacts"
    assert cli_main(["report", *argv, "--metrics-out", str(out)]) == 0
    [(kwargs, result)] = runs
    [spec] = built
    assert kwargs.get("obs") is None
    cell = run_spec(spec)
    assert result.sim_events == cell.sim_events
    name = f"{argv[0]}.health.json"
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_text() == \
        json.dumps(payload(cell), indent=2, sort_keys=True) + "\n"
