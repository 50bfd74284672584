"""Opt-in per-job health capture: RunSpec(health=True) carries the
compact protocol-health payload across the worker boundary."""

import json

from repro.fleet.worker import execute_spec, run_spec
from repro.harness.runner import TransferResult
from repro.workloads.spec import RunSpec


def _lan(**kw):
    return RunSpec.lan(2, 100e6, seed=7, nbytes=150_000,
                       sndbuf=128 * 1024, **kw)


def _wan(**kw):
    return RunSpec.wan(test=2, receivers=3, bandwidth_bps=10e6, seed=21,
                       nbytes=150_000, sndbuf=128 * 1024,
                       max_sim_s=300.0, **kw)


def test_health_capture_off_by_default():
    summary = run_spec(_lan())
    assert summary.ok
    assert summary.health == {}


def test_health_capture_collects_payload():
    summary = run_spec(_wan(health=True))
    assert summary.ok
    health = summary.health
    assert health["group_size"] == 3
    assert health["suppression"]["naks_sent"] > 0, "seed 21 is lossy"
    # the payload agrees with the counters the summary already carries
    assert health["implosion"]["naks_at_sender"] == \
        summary.sender_stats.naks_rcvd
    assert health["suppression"]["naks_sent"] == \
        summary.receiver_stats.naks_sent


def test_health_payload_survives_worker_boundary():
    wire = execute_spec(_wan(health=True).to_dict())
    assert wire == json.loads(json.dumps(wire, sort_keys=True))
    summary = TransferResult.from_dict(wire)
    assert summary.health["group_size"] == 3
    assert summary.to_dict()["health"] == wire["health"]


def test_health_flag_changes_spec_identity():
    """health=True runs schedule identically but report differently;
    the cache must not serve a bare run for a health-on spec."""
    assert _lan().content_hash() != _lan(health=True).content_hash()
    assert "health" in _lan(health=True).to_dict()


def test_health_spec_round_trips():
    spec = _wan(health=True)
    assert RunSpec.from_dict(spec.to_dict()) == spec
