"""Property battery: seeded random fault plans must never produce an
unsafe protocol state.

Each case builds a chaos scenario (seed-random :class:`FaultPlan` over
link flaps, degradations, NIC bursts/corruption, host pauses, clock
skew, timer stalls, and receiver crash/restart), runs a transfer with
the invariant checker attached, and asserts the safety contract:

* the checker stays green (no :class:`InvariantViolation` raised),
* every surviving receiver delivers and verifies the full stream,
* crashed receivers are accounted for -- either restarted (rejoin
  delivers a verified suffix) or cleanly absent.
"""

import pytest

from repro.core.config import HRMCConfig
from repro.harness.runner import run_transfer
from repro.workloads.scenarios import build_chaos
from repro.workloads.spec import CHAOS_TUNING

MBPS_10 = 10e6
NBYTES = 200_000
HORIZON_US = 1_000_000

pytestmark = pytest.mark.chaos

HRMC_SEEDS = list(range(20))
BASELINE_SEEDS = list(range(8))


def _run_chaos(protocol, seed, *, allow_crash, max_outage_us=None, cfg=None):
    sc = build_chaos(3, MBPS_10, seed=seed, horizon_us=HORIZON_US,
                     allow_crash=allow_crash, max_outage_us=max_outage_us)
    return sc, run_transfer(sc, protocol=protocol, nbytes=NBYTES,
                            sndbuf=128 * 1024, cfg=cfg, invariants=True,
                            max_sim_s=120)


@pytest.mark.parametrize("seed", HRMC_SEEDS)
def test_hrmc_survives_random_faults(seed):
    sc, res = _run_chaos("hrmc", seed, allow_crash=True,
                         cfg=HRMCConfig(**CHAOS_TUNING))
    assert res.invariant_checks > 0
    assert res.surviving_ok, (sc.fault_plan.describe(),
                              [(r.name, r.bytes_done, r.errors)
                               for r in res.per_receiver])
    # crash bookkeeping is consistent with the plan
    planned_crashes = {a.target for a in sc.fault_plan.crashes}
    assert set(res.crashed_receivers) <= planned_crashes
    for r in res.rejoin_results:
        # a rejoin may deliver nothing (the sender finished first);
        # whatever it did deliver must be a verified mid-stream suffix
        assert r.verified, r.errors
        if r.bytes_done > 0:
            assert r.resumed_at_offset >= 0


@pytest.mark.parametrize("seed", BASELINE_SEEDS)
def test_ack_survives_transient_faults(seed):
    # The ACK baseline cannot tolerate a silent receiver (it blocks the
    # window forever), so the plan is crash-free and outage-bounded.
    sc, res = _run_chaos("ack", seed, allow_crash=False,
                         max_outage_us=300_000)
    assert res.invariant_checks > 0
    assert res.ok, (sc.fault_plan.describe(),
                    [(r.name, r.bytes_done, r.errors)
                     for r in res.per_receiver])


@pytest.mark.parametrize("seed", BASELINE_SEEDS)
def test_polling_survives_transient_faults(seed):
    # Polling evicts members after EVICT_AFTER_POLLS silent polls, so
    # outages must stay well inside the eviction horizon.
    sc, res = _run_chaos("polling", seed, allow_crash=False,
                         max_outage_us=300_000)
    assert res.invariant_checks > 0
    assert res.ok, (sc.fault_plan.describe(),
                    [(r.name, r.bytes_done, r.errors)
                     for r in res.per_receiver])


def test_tcp_rejects_fault_plans():
    sc = build_chaos(2, MBPS_10, seed=0, horizon_us=HORIZON_US)
    with pytest.raises(ValueError, match="fault"):
        run_transfer(sc, protocol="tcp", nbytes=50_000, sndbuf=64 * 1024)
