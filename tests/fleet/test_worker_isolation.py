"""Worker hygiene: many jobs in one process must not contaminate each
other.  The worker rebuilds the whole world from the spec, and nothing
under ``src/repro`` may carry mutable module-global state between runs
(a leak moves the pinned hashes of later runs; DESIGN.md §5f)."""

from repro.fleet.worker import execute_spec
from repro.workloads.spec import RunSpec


def _lan(seed: int) -> dict:
    return RunSpec.lan(2, 10e6, seed=seed, nbytes=80_000).to_dict()


def _chaos() -> dict:
    return RunSpec.chaos(3, 10e6, seed=3, horizon_us=500_000,
                         nbytes=60_000, invariants=True,
                         cfg={"member_timeout_us": 2_000_000,
                              "member_timeout_probes": 4}).to_dict()


def test_same_spec_twice_in_one_process_is_identical():
    assert execute_spec(_lan(1)) == execute_spec(_lan(1))


def test_interleaved_jobs_do_not_contaminate():
    """A-B-A in one process: the third run must equal the first even
    though a different world (including a fault-injected one) ran in
    between."""
    first = execute_spec(_lan(1))
    # a different world: more receivers, more data (a loss-free LAN is
    # seed-insensitive, so vary the shape, not just the seed)
    other = execute_spec(RunSpec.lan(3, 10e6, seed=2,
                                     nbytes=120_000).to_dict())
    chaos = execute_spec(_chaos())
    again = execute_spec(_lan(1))
    assert again == first
    assert other != first
    assert chaos["fault_events"] >= 0

    # and the cross-check: the chaos run replays identically too
    assert execute_spec(_chaos()) == chaos
