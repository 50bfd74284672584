"""Mutation tests: deliberately break the protocol and prove the
invariant checker catches it.

A checker that never fires is indistinguishable from no checker; each
test here monkeypatches one safety mechanism out of the implementation
and asserts :class:`InvariantViolation` is raised with the offending
state in the message.
"""

from dataclasses import replace

import pytest

from repro.core.config import HRMCConfig
from repro.core.receiver import HRMCReceiver
from repro.core.sender import HRMCSender
from repro.faults.invariants import InvariantViolation
from repro.harness.runner import run_transfer
from repro.core.types import PacketType
from repro.kernel.skbuff import SKBuff
from repro.workloads.groups import expand_test_case
from repro.workloads.scenarios import build_chaos, build_lan, build_wan
from repro.workloads.spec import CHAOS_TUNING

pytestmark = pytest.mark.chaos


def test_skipping_membership_gate_trips_release_invariant(monkeypatch):
    """A sender that releases buffers without checking the member table
    violates reliability: some member still lacks the released bytes."""
    monkeypatch.setattr(HRMCSender, "_info_complete",
                        lambda self, boundary: True)
    sc = build_chaos(3, 10e6, seed=3, horizon_us=1_000_000)
    with pytest.raises(InvariantViolation, match="releasing"):
        run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024,
                     cfg=HRMCConfig(**CHAOS_TUNING), invariants=True,
                     max_sim_s=120)


def test_skipping_repair_cache_trim_trips_bound_invariant(monkeypatch):
    """A receiver that never trims its repair cache grows without bound;
    the checker enforces the configured byte ceiling."""
    def no_trim(self, seq, length, payload):
        if seq in self._repair_cache:
            return
        entry = SKBuff(sport=self.sock.num, dport=self.sock.num, seq=seq,
                       ptype=PacketType.DATA, length=length, payload=payload)
        self._repair_cache[seq] = entry
        self._repair_cache_bytes += length
        # mutation: the `while > repair_cache_bytes: popitem()` loop
        # from _cache_for_repair is gone

    monkeypatch.setattr(HRMCReceiver, "_cache_for_repair", no_trim)
    cfg = replace(HRMCConfig(), local_recovery=True,
                  repair_cache_bytes=32 * 1024)
    sc = build_lan(2, 10e6, seed=0)
    with pytest.raises(InvariantViolation, match="repair cache"):
        run_transfer(sc, nbytes=200_000, sndbuf=128 * 1024, cfg=cfg,
                     invariants=True, max_sim_s=120)


def _lossy_wan_run():
    sc = build_wan(expand_test_case(3, 10), 10e6, seed=7)
    return run_transfer(sc, nbytes=300_000, sndbuf=256 * 1024, seed=7,
                        invariants=True, max_sim_s=120)


def test_whole_span_gap_claim_trips_parked_overlap_invariant(monkeypatch):
    """A receiver that claims everything from rcv_nxt up to each
    out-of-order arrival re-requests, and gets retransmitted to the
    whole group, the segments it parked on the previous arrivals."""
    note_gap = HRMCReceiver._note_gap

    def whole_span(self, end):
        # mutation: the claim ignores the frontier that parked segments
        # and earlier claims have moved
        self._claimed_to = self.rcv_nxt
        note_gap(self, end)

    monkeypatch.setattr(HRMCReceiver, "_note_gap", whole_span)
    with pytest.raises(InvariantViolation, match="requests parked data"):
        _lossy_wan_run()


def test_unmutated_runs_stay_green():
    """Control: the same scenarios pass with the real implementation."""
    sc = build_chaos(3, 10e6, seed=3, horizon_us=1_000_000)
    res = run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024,
                       cfg=HRMCConfig(**CHAOS_TUNING), invariants=True,
                       max_sim_s=120)
    assert res.surviving_ok

    cfg = replace(HRMCConfig(), local_recovery=True,
                  repair_cache_bytes=32 * 1024)
    sc = build_lan(2, 10e6, seed=0)
    res = run_transfer(sc, nbytes=200_000, sndbuf=128 * 1024, cfg=cfg,
                       invariants=True, max_sim_s=120)
    assert res.ok

    assert _lossy_wan_run().ok
