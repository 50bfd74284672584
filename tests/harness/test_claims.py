"""Every claim of every experiment, at quick scale.

Each experiment states its paper (or ablation) claims on the numbers it
computes; this runs the whole inventory once through a 2-worker fleet
and holds every report to them.
"""

import pytest

from repro.fleet import Fleet
from repro.harness.experiments import EXPERIMENTS, run_experiments


@pytest.fixture(scope="module")
def reports():
    return run_experiments(list(EXPERIMENTS), "quick", Fleet(workers=2))


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_every_claim_holds(reports, exp_id):
    report = reports[exp_id]
    assert report.claims, f"{exp_id} states no claim"
    assert not report.failed, report.render()
