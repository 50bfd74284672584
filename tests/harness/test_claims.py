"""Every claim of every experiment, at quick scale.

Each experiment states its paper (or ablation) claims on the numbers it
computes; this holds every report to them.  The whole inventory's cells
run once, up front, through a 2-worker fleet into one cache; each
experiment then assembles its report from that cache, so a cell that
raises fails only the experiments that hold it.

The same cache renders the whole quick sweep's stdout, which is
committed as ``experiments_quick_output.txt``: an edit that moves any
report must regenerate that file (``hrmc-experiments --all --no-cache >
experiments_quick_output.txt``) or this fails.
"""

import pathlib

import pytest

from repro.fleet import Fleet
from repro.harness.experiments import (EXPERIMENTS, plan_experiment,
                                       run_experiment)
from repro.harness.inventory import INVENTORY

QUICK_OUTPUT = pathlib.Path(__file__).resolve().parents[2] / \
    "experiments_quick_output.txt"


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    fleet = Fleet(workers=2,
                  cache_dir=str(tmp_path_factory.mktemp("claims-cache")))
    # a failed cell is not cached: the experiments that hold it run it
    # again below and fail on it
    fleet.run_specs([spec for exp_id in EXPERIMENTS
                     for spec in plan_experiment(exp_id, "quick")],
                    strict=False)
    return fleet


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_every_claim_holds(fleet, exp_id):
    report = run_experiment(exp_id, "quick", fleet)
    assert report.claims, f"{exp_id} states no claim"
    assert not report.failed, report.render()


def test_the_committed_quick_output_is_the_sweeps_stdout(fleet):
    """`--all` prints each report, in inventory order, as its rendering
    and a blank line."""
    stdout = "".join(run_experiment(exp_id, "quick", fleet).render() + "\n\n"
                     for exp_id in INVENTORY)
    assert stdout.encode() == QUICK_OUTPUT.read_bytes()
