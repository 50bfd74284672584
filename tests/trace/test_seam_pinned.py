"""What the packet seam reports is pinned, byte for byte.

`PINNED_SEAM` holds, per run, how many drops the seam reported for each
reason (counted by a plain `PacketTracer.subscribe` counter, and equal
to the run's drop ledger, `Simulator.drops`) and the sha256 of the
capture `PacketTracer.save` writes.  Together the four runs reach ten
drop reasons:

* `wan-21` -- the WAN test-2 world with 3 receivers, 200 000 bytes,
  seed 21: one receiver-NIC loss,
* `wan-test-3` -- WAN test 3 with 5 receivers, 500 000 bytes, seed 1:
  correlated router loss, pipe loss and receiver-NIC loss,
* `chaos-17` -- the `chaos` experiment's seed-17 cell (`report chaos
  --seed 17 --receivers 3 --nbytes 250000`): checksum, NIC burst and
  link-down drops from the fault plan,
* `wan-pipe-faults` -- a WAN transfer under a plan that flaps a group
  pipe and degrades one receiver's pipe: `pipe_down` and
  `pipe_fault_loss` drops, which no other test reaches.

Each run also drops segments that arrive once nobody is there for
them: `no_route` (`wan-21`, `wan-test-3`, `wan-pipe-faults`), the
sender's keepalives to a group whose last member has left, so no
router has a pipe subscribed to it, and `unroutable` (`wan-test-3`,
`chaos-17`), LEAVE_RESPONSEs reaching a receiver that has closed its
socket: the host receives the segment, then finds no socket bound to
its port, as in Linux.

Re-pin only for a change that is meant to alter what a run sends,
receives or drops, from the repo root:

    PYTHONPATH=src:. python -c "from tests.trace.test_seam_pinned \\
        import PINNED_SEAM, seam; \\
        [print(n, seam(n, '/tmp')) for n in PINNED_SEAM]"
"""

import hashlib
from collections import Counter

import pytest

from repro.faults.plan import FaultPlan, LinkDegrade, LinkFlap
from repro.harness.runner import run_transfer
from repro.trace.tracer import PacketTracer
from repro.workloads import build_wan, expand_test_case
from repro.workloads.spec import RunSpec

#: name -> (drops per reason, sha256 of the saved packet trace)
PINNED_SEAM = {
    "wan-21": (
        {"rx_loss": 1, "no_route": 2},
        "2044eabe5c33776f5faef8a970ee2fd31a5766a076fdddfa402de2757d8b0e24"),
    "wan-test-3": (
        {"pipe_loss": 7, "router_loss": 11, "rx_loss": 2,
         "unroutable": 39, "no_route": 2},
        "aabaea64a7b5d4455848885ba7912de9d263ea84b1794d139ba3bac949538cc3"),
    "chaos-17": (
        {"checksum": 50, "link_down": 31, "nic_burst_drop": 53,
         "unroutable": 1},
        "9f2595e9aeed11b883f7531a348ef1a331ecf704f98a4fdf3b0cbd9ad2345d10"),
    "wan-pipe-faults": (
        {"pipe_down": 37, "pipe_fault_loss": 24, "rx_loss": 1,
         "no_route": 2},
        "e10189ca54e82221d6cc26fd4fdcc078e1fac219c8a38c377429a14b598d0b38"),
}

#: name -> the spec of a run the CLI also runs (`report wan ...` and
#: `report chaos --seed 17 ...`)
SPECS = {
    "wan-21": lambda: RunSpec.wan(test=2, receivers=3, bandwidth_bps=10e6,
                                  seed=21, nbytes=200_000),
    "wan-test-3": lambda: RunSpec.wan(test=3, receivers=5,
                                      bandwidth_bps=10e6, seed=1,
                                      nbytes=500_000),
    "chaos-17": lambda: RunSpec.chaos(3, 10e6, seed=17,
                                      horizon_us=1_000_000,
                                      nbytes=250_000),
}


def _pipe_faults():
    plan = FaultPlan(seed=3, actions=(
        LinkFlap(at_us=150_000, surface="group:B", duration_us=80_000),
        LinkDegrade(at_us=250_000, surface="rx:10.1.0.2", loss_rate=0.3,
                    duration_us=300_000)))
    scenario = build_wan(expand_test_case(2, 3), 10e6, seed=21)
    scenario.fault_plan = plan
    return scenario, {"nbytes": 200_000, "sndbuf": 128 * 1024,
                      "max_sim_s": 300}


def seam(name, outdir):
    """`PINNED_SEAM[name]` as the current code produces it, with the
    run's packet trace saved under `outdir`."""
    scenario, kwargs = (SPECS[name]().build() if name in SPECS
                        else _pipe_faults())
    drops: Counter = Counter()

    def count(now, fact, where, pkt):
        if fact != "tx" and fact != "rx":
            drops[fact] += 1

    tracer = PacketTracer()
    tracer.subscribe(count)
    result = run_transfer(scenario, tracer=tracer, **kwargs)
    assert result.surviving_ok
    assert drops == scenario.sim.drops
    path = f"{outdir}/{name}.trace.jsonl"
    tracer.save(path)
    with open(path, "rb") as fh:
        return dict(drops), hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", PINNED_SEAM)
def test_seam_drops_and_trace_are_pinned(name, tmp_path):
    assert seam(name, tmp_path) == PINNED_SEAM[name]
