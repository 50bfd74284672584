"""The commands that run one transfer build the fleet's RunSpec: a spec
no world can be built from is unusable input (exit 2, one stderr line),
and `--chaos-seed N` runs the chaos experiment's seed-N cell."""

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.experiments import plan_experiment
from repro.workloads.spec import RunSpec


@pytest.mark.parametrize("argv", [
    ["report", "lan", "--protocol", "bogus"],
    ["report", "wan", "--wan-test", "9"],
    ["report", "lan", "--receivers", "0"],
    ["why", "wan", "--receivers", "0"],
    ["perf", "profile", "chaos", "--protocol", "tcp"],
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
