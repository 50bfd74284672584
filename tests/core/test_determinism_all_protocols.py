"""Cross-protocol determinism: identical seeds must yield identical
traces for every protocol (the property that makes A/B experiment
comparisons paired)."""

import pytest

from repro.core.config import HRMCConfig
from repro.harness.runner import PROTOCOLS, run_transfer
from repro.workloads.groups import GROUP_B
from repro.workloads.scenarios import build_chaos, build_wan
from repro.workloads.spec import CHAOS_TUNING


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocol_trace_reproducible(protocol):
    def fingerprint():
        sc = build_wan([GROUP_B] * 2, 10e6, seed=123)
        res = run_transfer(sc, nbytes=100_000, protocol=protocol,
                           sndbuf=128 * 1024, max_sim_s=300)
        assert res.ok
        return (res.duration_us, res.sim_events,
                res.sender_stats.data_pkts_sent,
                res.sender_stats.retrans_pkts,
                res.receiver_stats.feedback_total)

    assert fingerprint() == fingerprint()


@pytest.mark.chaos
@pytest.mark.parametrize("protocol", ["hrmc", "ack", "polling"])
def test_chaos_run_reproducible(protocol):
    """Fault injection must preserve determinism: arming the same plan
    twice gives identical fault timing and identical protocol trace."""
    def fingerprint():
        sc = build_chaos(3, 10e6, seed=11, horizon_us=1_000_000,
                         allow_crash=(protocol == "hrmc"),
                         max_outage_us=300_000)
        cfg = HRMCConfig(**CHAOS_TUNING) if protocol == "hrmc" else None
        res = run_transfer(sc, nbytes=200_000, protocol=protocol,
                           sndbuf=128 * 1024, cfg=cfg, invariants=True,
                           max_sim_s=120)
        return (sc.fault_plan.describe(), res.fault_events,
                tuple(res.crashed_receivers), tuple(res.restarted_receivers),
                res.duration_us, res.sim_events, res.invariant_checks,
                res.sender_stats.data_pkts_sent,
                res.sender_stats.retrans_pkts)

    assert fingerprint() == fingerprint()
