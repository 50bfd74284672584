"""Grid planning machinery + the experiment inventory drift gate."""

import os

import pytest

from repro.fleet.grid import PROBE, Grid
from repro.harness.experiments import EXPERIMENTS, plan_experiment
from repro.harness.inventory import INVENTORY, inventory_markdown
from repro.workloads.spec import RunSpec

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def test_probe_absorbs_report_shaped_code():
    assert PROBE == 0
    assert PROBE.sender_stats.naks_rcvd == 0
    assert round(PROBE.throughput_mbps, 2) == 0
    assert PROBE.a + PROBE.b * 2 == 0
    assert list(PROBE.crashed_receivers) == []
    assert not PROBE


def test_grid_planning_collects_and_dedupes():
    grid = Grid()
    a = RunSpec.lan(1, 10e6, seed=1, nbytes=1000)
    b = RunSpec.lan(2, 10e6, seed=1, nbytes=1000)
    assert grid.planning
    assert grid.run(a) is PROBE
    grid.run(b)
    grid.run(a)  # duplicate: registered once
    assert [s.content_hash() for s in grid.specs] == \
        [a.content_hash(), b.content_hash()]


def test_grid_report_pass_serves_results_and_rejects_strays():
    a = RunSpec.lan(1, 10e6, seed=1, nbytes=1000)
    b = RunSpec.lan(2, 10e6, seed=1, nbytes=1000)
    sentinel = object()
    grid = Grid({a.content_hash(): sentinel})
    assert not grid.planning
    assert grid.run(a) is sentinel
    with pytest.raises(KeyError, match="no fleet result"):
        grid.run(b)


def test_every_experiment_plans_without_executing():
    for exp_id in EXPERIMENTS:
        specs = plan_experiment(exp_id)
        hashes = [s.content_hash() for s in specs]
        assert len(hashes) == len(set(hashes)), exp_id
    with pytest.raises(KeyError, match="unknown experiment"):
        plan_experiment("fig99")


def test_inventory_covers_exactly_the_registry():
    assert set(INVENTORY) == set(EXPERIMENTS)


def test_experiments_md_inventory_is_not_drifted():
    """EXPERIMENTS.md embeds ``inventory_markdown()`` verbatim -- the
    CLI ``--list``, the docs and this test share one source of truth."""
    with open(os.path.join(REPO, "EXPERIMENTS.md")) as fh:
        doc = fh.read()
    table = inventory_markdown()
    assert table in doc, (
        "EXPERIMENTS.md per-experiment inventory is out of date; "
        "regenerate it with: PYTHONPATH=src python -c "
        '"from repro.harness.inventory import inventory_markdown; '
        'print(inventory_markdown())"')
