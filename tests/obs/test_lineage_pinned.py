"""What causal lineage records is pinned, byte for byte.

Every tx, rx and drop node of a lineage file arrives through the packet
seam.  `PINNED_ARTIFACTS` holds, per run, the drop reasons its lineage
holds (a `+blame` suffix counts drops blamed on a fault action) and the
sha256 of the saved `*.lineage.jsonl` and `*.trace.jsonl`.  Together the
four runs reach eight drop reasons, five of them blamed on a fault:

* `wan-21` -- `report wan --receivers 3 --nbytes 200000 --seed 21
  --lineage`: one receiver-NIC loss,
* `wan-test-3` -- `report wan --wan-test 3 --receivers 5 --nbytes
  500000 --seed 1 --lineage`: correlated router loss, pipe loss and
  receiver-NIC loss,
* `chaos-17` -- `--chaos-seed 17 --metrics-out`: blamed checksum, NIC
  burst and link-down drops, a timer stall and a receiver crash,
* `wan-pipe-faults` -- a WAN transfer under a plan that flaps a group
  pipe and degrades one receiver's pipe: blamed `pipe_down` and
  `pipe_fault_loss` drops, which no other test reaches.

Re-pin only for a change that is meant to alter lineage, from the repo
root:

    PYTHONPATH=src:. python -c "from tests.obs.test_lineage_pinned \\
        import PINNED_ARTIFACTS, artifacts; \\
        [print(n, artifacts(n, '/tmp')) for n in PINNED_ARTIFACTS]"
"""

import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest

from repro.faults.plan import FaultPlan, LinkDegrade, LinkFlap
from repro.harness.cli import main as cli_main
from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.trace.tracer import PacketTracer
from repro.workloads import build_wan, expand_test_case

#: name -> (drop reasons in the lineage, sha256 of the lineage file,
#:          sha256 of the packet trace)
PINNED_ARTIFACTS = {
    "wan-21": (
        {"rx_loss": 1},
        "4f1a0ce7296389acb69b5b3ac20471e7cc2393a764786e8cdc8e836eb850997c",
        "2044eabe5c33776f5faef8a970ee2fd31a5766a076fdddfa402de2757d8b0e24"),
    "wan-test-3": (
        {"pipe_loss": 7, "router_loss": 11, "rx_loss": 2},
        "4157b3551dce556057a68b848eac4ceda8a648d3d24495b43ea092fcaf444388",
        "aabaea64a7b5d4455848885ba7912de9d263ea84b1794d139ba3bac949538cc3"),
    "chaos-17": (
        {"checksum+blame": 50, "link_down+blame": 31,
         "nic_burst_drop+blame": 53},
        "564b2c4ce2e2057ced61356d2feef69677ad922b0ade483c504e27600e4760df",
        "9f2595e9aeed11b883f7531a348ef1a331ecf704f98a4fdf3b0cbd9ad2345d10"),
    "wan-pipe-faults": (
        {"pipe_down+blame": 37, "pipe_fault_loss+blame": 24, "rx_loss": 1},
        "1251e0b4daee76aa155ff1f7acd18b51a076a59e7e8cb513656b32106e490411",
        "e10189ca54e82221d6cc26fd4fdcc078e1fac219c8a38c377429a14b598d0b38"),
}

#: name -> CLI arguments (the CLI adds `--metrics-out DIR`) and the
#: artifact prefix the run writes
CLI_RUNS = {
    "wan-21": (["report", "wan", "--receivers", "3", "--nbytes", "200000",
                "--seed", "21", "--lineage"], "wan"),
    "wan-test-3": (["report", "wan", "--wan-test", "3", "--receivers", "5",
                    "--nbytes", "500000", "--seed", "1", "--lineage"],
                   "wan"),
    "chaos-17": (["--chaos-seed", "17"], "chaos"),
}


def _pipe_faults(outdir) -> str:
    plan = FaultPlan(seed=3, actions=(
        LinkFlap(at_us=150_000, surface="group:B", duration_us=80_000),
        LinkDegrade(at_us=250_000, surface="rx:10.1.0.2", loss_rate=0.3,
                    duration_us=300_000)))
    scenario = build_wan(expand_test_case(2, 3), 10e6, seed=21)
    scenario.fault_plan = plan
    obs = Observability(profile=False, lineage=True)
    result = run_transfer(scenario, nbytes=200_000, sndbuf=128 * 1024,
                          max_sim_s=300, obs=obs, tracer=PacketTracer())
    assert result.ok
    obs.write_artifacts(str(outdir), prefix="pipes")
    return f"{outdir}/pipes"


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _drop_reasons(path: str) -> dict:
    reasons: Counter = Counter()
    with open(path) as fh:
        for line in fh:
            node = json.loads(line)
            if node.get("kind") == "drop":
                reasons[node["what"] + ("+blame" if node["blame"]
                                        else "")] += 1
    return dict(reasons)


def artifacts(name, outdir):
    """`PINNED_ARTIFACTS[name]` as the current code produces it, with
    the run's artifacts written under `outdir`."""
    if name in CLI_RUNS:
        argv, prefix = CLI_RUNS[name]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv + ["--metrics-out", str(outdir)]) == 0
        base = f"{outdir}/{prefix}"
    else:
        base = _pipe_faults(outdir)
    lineage = base + ".lineage.jsonl"
    return (_drop_reasons(lineage), _sha(lineage),
            _sha(base + ".trace.jsonl"))


@pytest.mark.parametrize("name", PINNED_ARTIFACTS)
def test_lineage_and_trace_are_pinned(name, tmp_path):
    assert artifacts(name, tmp_path) == PINNED_ARTIFACTS[name]
