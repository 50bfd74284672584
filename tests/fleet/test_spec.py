"""RunSpec identity: canonical encoding, hashing, round-trips."""

import json
import subprocess
import sys

import pytest

from repro.workloads.spec import SPEC_VERSION, RunSpec


def _spec() -> RunSpec:
    return RunSpec.wan(test=2, receivers=10, bandwidth_bps=10e6, seed=11,
                       nbytes=1_000_000, sndbuf=256 * 1024,
                       cfg={"minbuf_rtts": 5})


def test_hash_is_stable_within_process():
    assert _spec().content_hash() == _spec().content_hash()


def test_hash_ignores_cfg_key_order():
    a = RunSpec.lan(2, 10e6, seed=1, nbytes=1000,
                    cfg={"a": 1, "b": 2})
    b = RunSpec.lan(2, 10e6, seed=1, nbytes=1000,
                    cfg={"b": 2, "a": 1})
    assert a.content_hash() == b.content_hash()


def test_hash_changes_with_every_field():
    base = _spec()
    variants = [
        RunSpec.wan(test=3, receivers=10, bandwidth_bps=10e6, seed=11,
                    nbytes=1_000_000, sndbuf=256 * 1024,
                    cfg={"minbuf_rtts": 5}),
        RunSpec.wan(test=2, receivers=10, bandwidth_bps=10e6, seed=12,
                    nbytes=1_000_000, sndbuf=256 * 1024,
                    cfg={"minbuf_rtts": 5}),
        RunSpec.wan(test=2, receivers=10, bandwidth_bps=10e6, seed=11,
                    nbytes=2_000_000, sndbuf=256 * 1024,
                    cfg={"minbuf_rtts": 5}),
        RunSpec.wan(test=2, receivers=10, bandwidth_bps=10e6, seed=11,
                    nbytes=1_000_000, sndbuf=512 * 1024,
                    cfg={"minbuf_rtts": 5}),
        RunSpec.wan(test=2, receivers=10, bandwidth_bps=10e6, seed=11,
                    nbytes=1_000_000, sndbuf=256 * 1024,
                    cfg={"minbuf_rtts": 6}),
    ]
    hashes = {base.content_hash()} | {v.content_hash() for v in variants}
    assert len(hashes) == 1 + len(variants)


def test_hash_is_stable_across_processes():
    """blake2b of canonical JSON must not depend on interpreter state
    (hash randomization, dict order, import order)."""
    spec = _spec()
    prog = (
        "import json,sys\n"
        "sys.path.insert(0, 'src')\n"
        "from repro.workloads.spec import RunSpec\n"
        f"spec = RunSpec.from_dict(json.loads({spec.canonical_json()!r}))\n"
        "print(spec.content_hash())\n"
    )
    outs = set()
    for seed in ("0", "1", "random"):
        proc = subprocess.run(
            [sys.executable, "-c", prog], capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__)
                    .resolve().parents[2]),
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout.strip())
    assert outs == {spec.content_hash()}


def test_round_trip_preserves_identity():
    spec = _spec()
    again = RunSpec.from_dict(json.loads(spec.canonical_json()))
    assert again == spec
    assert again.content_hash() == spec.content_hash()


def test_from_dict_rejects_unknown_fields_and_versions():
    d = _spec().to_dict()
    with pytest.raises(ValueError, match="version"):
        RunSpec.from_dict(dict(d, version=SPEC_VERSION + 1))
    with pytest.raises(ValueError, match="unknown RunSpec fields"):
        RunSpec.from_dict(dict(d, surprise=1))


def test_wan_needs_exactly_one_of_groups_or_test():
    with pytest.raises(ValueError):
        RunSpec.wan(bandwidth_bps=10e6, seed=1, nbytes=1000)
    with pytest.raises(ValueError):
        RunSpec.wan(bandwidth_bps=10e6, seed=1, nbytes=1000,
                    groups=["A"], test=1, receivers=3)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        RunSpec(scenario="moon", scenario_params={}, nbytes=1)


@pytest.mark.parametrize("make", [
    lambda: RunSpec.lan(0, 10e6, seed=1, nbytes=1000),
    lambda: RunSpec.lan(2, 10e6, seed=1, nbytes=1000, protocol="bogus"),
    lambda: RunSpec.wan(test=9, receivers=3, bandwidth_bps=10e6, seed=1,
                        nbytes=1000),
    lambda: RunSpec.wan(groups=["A", "Z"], bandwidth_bps=10e6, seed=1,
                        nbytes=1000),
    lambda: RunSpec.wan(groups=[], bandwidth_bps=10e6, seed=1, nbytes=1000),
    lambda: RunSpec.chaos(3, 10e6, seed=1, nbytes=1000, protocol="tcp"),
], ids=["no-receivers", "protocol", "test-case", "group", "no-groups",
        "tcp-chaos"])
def test_spec_no_world_can_be_built_from_is_refused(make):
    """A fleet cell with no receivers used to summarize as ok=True."""
    with pytest.raises(ValueError):
        make()


def test_a_disk_cell_runs_on_its_spec_seed():
    """The spec's seed drives the disk models too, as it does when the
    same transfer is run directly."""
    from repro.fleet.worker import run_spec
    from repro.harness.runner import run_transfer
    from repro.workloads.scenarios import build_lan
    fleet = run_spec(RunSpec.lan(2, 10e6, seed=3, nbytes=500_000,
                                 disk=True))
    direct = run_transfer(build_lan(2, 10e6, seed=3), nbytes=500_000,
                          disk=True, seed=3)
    assert fleet.ok and direct.ok
    assert fleet.duration_us == direct.duration_us


def test_a_fault_plan_is_part_of_the_spec():
    from repro.faults.plan import FaultPlan

    def lan(plan=None, **kw):
        return RunSpec.lan(3, 10e6, seed=1, nbytes=1000, plan=plan, **kw)

    plans = [FaultPlan.random(s, n_receivers=3, horizon_us=1_000_000)
             for s in (1, 2)]
    specs = [lan()] + [lan(p.to_dict()) for p in plans]
    assert len({s.content_hash() for s in specs}) == 3
    assert RunSpec.from_dict(specs[1].to_dict()) == specs[1]
    assert specs[0].build()[0].fault_plan is None
    assert [s.build()[0].fault_plan for s in specs[1:]] == plans
    with pytest.raises(ValueError, match="tcp"):
        lan(plans[0].to_dict(), protocol="tcp")
