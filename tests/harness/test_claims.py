"""Every claim of every experiment, at quick scale.

Each experiment states its paper (or ablation) claims on the numbers it
computes; this holds every report to them.  The whole inventory's cells
run once, up front, through a 2-worker fleet into one cache; each
experiment then assembles its report from that cache, so a cell that
raises fails only the experiments that hold it.
"""

import pytest

from repro.fleet import Fleet
from repro.harness.experiments import (EXPERIMENTS, plan_experiment,
                                       run_experiment)


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
