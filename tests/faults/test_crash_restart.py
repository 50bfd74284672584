"""Acceptance scenario: a receiver crashes mid-transfer, restarts, and
rejoins the live stream -- invariants green, survivors complete, and the
whole chaotic run is byte-identical across same-seed repeats.

Seed 10 is a known crash-and-restart plan: receiver 2 crashes at
t=150564us and restarts at t=342577us, well inside the transfer.
"""

import filecmp

import pytest

from repro.core.config import HRMCConfig
from repro.harness.runner import run_transfer
from repro.trace.tracer import PacketTracer
from repro.workloads.scenarios import build_chaos
from repro.workloads.spec import CHAOS_TUNING

pytestmark = pytest.mark.chaos

SEED = 10
NBYTES = 250_000


def _run(tracer=None):
    sc = build_chaos(3, 10e6, seed=SEED, horizon_us=1_000_000)
    res = run_transfer(sc, nbytes=NBYTES, sndbuf=128 * 1024,
                       cfg=HRMCConfig(**CHAOS_TUNING), invariants=True,
                       tracer=tracer, max_sim_s=120)
    return sc, res


def test_seed10_crashes_and_restarts_receiver2():
    sc, res = _run()
    crashes = sc.fault_plan.crashes
    assert len(crashes) == 1 and crashes[0].target == 2
    assert crashes[0].restart_at_us is not None
    assert res.crashed_receivers == [2]
    assert res.restarted_receivers == [2]
    assert res.invariant_checks > 0
    assert res.surviving_ok


def test_seed10_rejoin_delivers_verified_suffix():
    _, res = _run()
    # survivors got everything
    for i in (0, 1):
        r = res.per_receiver[i]
        assert r.done and r.verified and r.bytes_done == NBYTES
    # the crashed receiver delivered a prefix, then its rejoin locked
    # onto a mid-stream offset and verified the suffix from there
    crashed = res.per_receiver[2]
    assert 0 < crashed.bytes_done < NBYTES
    (rejoin,) = res.rejoin_results
    assert rejoin.verified, rejoin.errors
    assert rejoin.resumed_at_offset > 0
    assert rejoin.resumed_at_offset + rejoin.bytes_done == NBYTES


def test_seed10_trace_deterministic(tmp_path):
    paths = []
    for i in range(2):
        tracer = PacketTracer()
        _, res = _run(tracer=tracer)
        assert res.surviving_ok
        path = tmp_path / f"run{i}.jsonl"
        n = tracer.save(str(path))
        assert n > 0
        paths.append(path)
    assert filecmp.cmp(*paths, shallow=False), \
        "same chaos seed produced different traces"
