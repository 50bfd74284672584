"""Health is part of every run record: a fleet cell's record, rebuilt
off the worker's JSON, reads the same payload as the bare run."""

from repro.fleet.worker import execute_spec
from repro.harness.runner import TransferResult, run_transfer
from repro.obs.health import payload
from repro.workloads.spec import RunSpec


def test_health_payload_survives_worker_boundary():
    spec = RunSpec.wan(test=2, receivers=3, bandwidth_bps=10e6, seed=21,
                       nbytes=150_000, sndbuf=128 * 1024)
    scenario, kwargs = spec.build()
    bare = payload(run_transfer(scenario, **kwargs))
    assert bare["suppression"]["naks_sent"] > 0, "seed 21 is lossy"
    assert payload(TransferResult.from_dict(
        execute_spec(spec.to_dict()))) == bare
