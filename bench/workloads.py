"""The six workloads, and how their CLI variants are invoked and checked.

Sizes are set so one repetition is about 2 s of host time on the
2-core reference host (the sweep is 30 fixed cells, about 7 s); a run
is several repetitions, so every run executes well over 1M engine
events.  bench/README.md has the reasons in full.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from statistics import mean


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "transfer" | "report" | "sweep"
    why: str
    rep_s: float = 2.0         # nominal host seconds of one repetition
    # transfer and report
    topo: str = "lan"
    receivers: int = 0
    bandwidth_mbps: float = 0.0
    nbytes: int = 0
    sndbuf: int = 0
    disk: bool = False
    wan_test: int = 0
    # sweep
    experiment: str = ""
    cells: int = 0
    sweep_mb: float = 0.0      # sum of nbytes x receivers over the cells

    @property
    def delivered_mb(self) -> float:
        if self.kind == "sweep":
            return self.sweep_mb
        return self.nbytes * self.receivers / 1e6

    def smoke(self) -> "Workload":
        """Sizes / 50; the sweep swaps to a 6-cell experiment."""
        if self.kind == "sweep":
            # ablation-early-probes: 6 cells x 2 MB x 2 receivers
            return replace(self, experiment="ablation-early-probes",
                           cells=6, sweep_mb=24.0)
        return replace(self, nbytes=self.nbytes // 50)


WORKLOADS = {w.name: w for w in (
    Workload(
        "lan-bulk", "transfer",
        "loss-free fast path, 2 receivers at 100 Mbit/s, 512K buffers: "
        "per-packet cost of sim+kernel+core tx/rx with no repair work",
        receivers=2, bandwidth_mbps=100, nbytes=44_000_000,
        sndbuf=512 * 1024),
    Workload(
        "lan-fanout40", "transfer",
        "40 receivers on one segment: NIC RX rings, host-CPU models and "
        "UPDATE aggregation per packet; the engine's share is highest",
        receivers=40, bandwidth_mbps=100, nbytes=2_800_000,
        sndbuf=512 * 1024),
    Workload(
        "wan-lossy", "transfer",
        "10 receivers behind 100 ms / 2% loss: NAK, suppression, "
        "retransmission and jiffy timers over long idle simulated time",
        topo="wan", wan_test=3, receivers=10, bandwidth_mbps=10,
        nbytes=3_400_000, sndbuf=256 * 1024),
    Workload(
        "lan-disk", "transfer",
        "zero loss but 64K buffers and disk-paced applications: rate "
        "requests, window regions, UPDATEs and apps.diskmodel",
        receivers=3, bandwidth_mbps=10, nbytes=36_000_000,
        sndbuf=64 * 1024, disk=True),
    Workload(
        "cli-observed-report", "report",
        "what a user types: interpreter cold start, import repro, one "
        "observed transfer and the rendered report (obs, trace, cli)",
        receivers=2, bandwidth_mbps=100, nbytes=26_000_000,
        sndbuf=512 * 1024),
    Workload(
        "sweep-fig12", "sweep",
        "30 short transfers through fleet and harness.experiments: spec "
        "hashing, code fingerprint, scenario construction, slow start",
        rep_s=7.0, experiment="fig12", cells=30, sweep_mb=300.0),
)}


#: per-layer metrics read from the public counters of a TransferResult,
#: in the order bench.rep fills them in
COUNTER_METRICS = (
    "sim.events_per_MB", "sim.compactions", "net.drops_per_MB",
    "net.rx_ring_drops", "core.data_pkts_per_MB", "core.retrans_ratio",
    "core.dup_rcvd_ratio", "core.naks_per_MB", "core.rate_requests_per_MB",
    "core.feedback_pkts_per_MB", "core.release_complete_pct",
    "core.wire_efficiency")


def rep_seed(seed: int, i: int) -> int:
    """Seed of repetition ``i`` of a run: distinct per repetition, so a
    run's median is over several loss patterns, not one."""
    return seed * 1000 + i


def cli_argv(w: Workload, seed: int) -> list[str]:
    """Arguments after `python -m repro.harness.cli`."""
    if w.kind == "sweep":
        # the experiment pins its own seeds: `seed` does not apply
        return [w.experiment, "--no-cache", "--json"]
    return ["report", w.topo, "--receivers", str(w.receivers),
            "--bandwidth", str(w.bandwidth_mbps), "--sndbuf", str(w.sndbuf),
            "--nbytes", str(w.nbytes), "--seed", str(seed)]


_REPORT_HEAD = re.compile(r"ok=(True|False) throughput=([0-9.]+) Mbit/s")


def check_cli(w: Workload, stdout: str, returncode: int) -> dict:
    """Parse and verify a CLI repetition's stdout: the operations it
    attempted and failed, the simulated goodput it printed, and a hash
    of the part of stdout that must repeat byte for byte."""
    if w.kind == "sweep":
        # one operation per planned cell; a cell counts only if the
        # report carries a positive throughput for it
        try:
            tables = json.loads(stdout)["tables"]
        except (ValueError, KeyError):
            tables = []
        cells = [row[i] for t in tables for row in t["rows"]
                 for i, h in enumerate(t["headers"])
                 if h == "Mbps" or h.endswith(" rcv")]
        good = [c for c in cells if isinstance(c, (int, float)) and c > 0]
        failed = max(0, w.cells - len(good)) if returncode == 0 else w.cells
        return {"attempted": w.cells, "failed": failed,
                "goodput_mbps": mean(good) if good else 0.0,
                "sha": _sha(stdout)}
    # the profiler table at the end prints host wall time
    stable = stdout.split("\nprofiler:", 1)[0]
    head = _REPORT_HEAD.search(stdout)
    ok = returncode == 0 and head is not None and head.group(1) == "True"
    return {"attempted": 1, "failed": 0 if ok else 1,
            "goodput_mbps": float(head.group(2)) if head else 0.0,
            "sha": _sha(stable)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
