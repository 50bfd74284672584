"""Self-check of the benchmark's plumbing, at smoke size.

    python -m pytest bench -q        (from the repository root, < 60 s)

It checks names, determinism of the exact counts and that a failure
shows up as a failure.  It measures nothing.
"""

from __future__ import annotations

import json
import re

import pytest

from bench.__main__ import main
from bench.compare import verdict
from bench.once import run_once, spec
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = spec()


@pytest.fixture(scope="module")
def smoke_runs():
    """Per workload: one end-to-end smoke run, then two traced ones."""
    return {name: (run_once(name, 7, 1, False, smoke=True),
                   run_once(name, 7, 1, True, smoke=True),
                   run_once(name, 7, 1, True, smoke=True))
            for name in WORKLOADS}


def test_benchmark_json_names():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_declared_metric_is_emitted(smoke_runs):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name, (bare, traced, _) in smoke_runs.items():
        assert set(bare["metrics"]) == end_to_end, name
        assert set(traced["metrics"]) == per_layer, name
        assert all(v > 0 for v in bare["metrics"].values()), name
        assert bare["correct"] and traced["correct"], name


def test_exact_counts_and_simulated_statistics_repeat(smoke_runs):
    for name, (_, first, second) in smoke_runs.items():
        assert first["sim_stats_sha"] == second["sim_stats_sha"], name
        for metric, value in first["metrics"].items():
            if metric.endswith(("calls_per_MB", "calls_in_per_MB")):
                assert value == second["metrics"][metric], (name, metric)


def test_layers_separate_across_workloads(smoke_runs):
    for name, (_, traced, _) in smoke_runs.items():
        m = traced["metrics"]
        assert m["trace_coverage"] >= 0.95, name
        assert (m["obs.calls_per_MB"] > 0) == (name == "cli-observed-report")
        assert (m["fleet.calls_per_MB"] > 0) == (name == "sweep-fig12")


def test_failing_receivers_are_failures_not_numbers(capsys):
    # 880 KB at 100 Mbit/s needs ~0.2 simulated seconds
    code = main(["once", "--workload", "lan-bulk", "--smoke",
                 "--max-sim-s", "0.05"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_run_stamps_smoke_and_compare_refuses_it(tmp_path, capsys):
    assert main(["run", "--smoke", "--workloads", "lan-disk",
                 "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("result-*.json")
    result = json.loads(path.read_text())
    assert result["smoke"] is True
    assert result["workloads"]["lan-disk"]["fail_share"] == 0
    assert result["workloads"]["lan-disk"]["sim_stats_sha"]
    assert main(["compare", str(path), str(path)]) == 2
    assert "smoke" in capsys.readouterr().out


@pytest.mark.parametrize("a, b, spread, word", [
    ([1.00, 1.01, 1.02], [1.00, 1.01, 1.03], 0.02, "same"),
    ([1.00, 1.01, 1.02], [1.20, 1.21, 1.22], 0.02, "worse"),
    ([1.00, 1.01, 1.02], [0.90, 0.91, 0.92], 0.02, "better"),
    # parent's own spread exceeds the bound and the sides overlap
    ([1.00, 1.10, 1.30], [1.05, 1.25, 1.35], 0.30, "unresolved"),
    # ... unless every run of one side beats every run of the other
    ([1.00, 1.10, 1.30], [0.70, 0.80, 0.90], 0.30, "better"),
])
def test_verdict(a, b, spread, word):
    assert verdict(a, b, "lower", 0.10, spread)[1] == word
