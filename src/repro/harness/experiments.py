"""One function per paper table/figure, plus the ablation studies.

Every experiment returns a :class:`Report` whose tables carry the same
rows/series the paper plots.  Transfers default to a 1:5 scaled file
size (2 MB / 8 MB instead of 10 MB / 40 MB) so the full suite runs in
minutes; set ``REPRO_FULL_SCALE=1`` (or pass ``scale="full"``) for
paper-size runs.  Shape claims -- who wins, trend directions, where the
NAK onset falls -- hold at either scale.

Since PR 4 every experiment expresses its simulations as a
:class:`~repro.workloads.spec.RunSpec` grid executed through the fleet
(:mod:`repro.fleet`): the experiment function is evaluated once to
*plan* the grid, the fleet runs (or cache-serves) the specs -- in
parallel if asked -- and the function is evaluated again to assemble
the report from the summaries.  Serial, parallel and warm-cache
executions produce byte-identical reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.types import PACKET_TYPE_USE, PacketType
from repro.fleet.executor import Fleet
from repro.fleet.grid import Grid
from repro.harness.inventory import INVENTORY
from repro.stats.report import format_table
from repro.workloads.groups import GROUP_A, GROUP_B, GROUP_C, TEST_CASES
from repro.workloads.spec import RunSpec

__all__ = ["Report", "EXPERIMENTS", "run_experiment", "run_experiments",
           "plan_experiment", "file_sizes", "BUFFERS_K", "BUFFERS_BIG_K"]

BUFFERS_K = (64, 128, 256, 512, 1024)
BUFFERS_BIG_K = (64, 128, 256, 512, 1024, 2048, 4096)
MBPS_10 = 10e6
MBPS_100 = 100e6


@dataclass
class Report:
    exp_id: str
    title: str
    tables: list = field(default_factory=list)  # (title, headers, rows)
    notes: list = field(default_factory=list)

    def add(self, title: str, headers, rows) -> None:
        self.tables.append((title, list(headers), [list(r) for r in rows]))

    def render(self) -> str:
        parts = [f"### {self.exp_id}: {self.title}"]
        for title, headers, rows in self.tables:
            parts.append(format_table(title, headers, rows))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


def _scale(scale: Optional[str]) -> str:
    if scale is not None:
        return scale
    return "full" if os.environ.get("REPRO_FULL_SCALE") == "1" else "quick"


def file_sizes(scale: Optional[str] = None) -> tuple[int, int]:
    """(small, large) transfer sizes: 10/40 MB at full scale, 2/8 MB
    scaled."""
    if _scale(scale) == "full":
        return 10_000_000, 40_000_000
    return 2_000_000, 8_000_000


def _many_receivers(scale: Optional[str]) -> int:
    return 100 if _scale(scale) == "full" else 40


# ---------------------------------------------------------------------------
# Table 1

def table1_packet_types(scale: Optional[str] = None,
                        grid: Optional[Grid] = None) -> Report:
    rep = Report("table1", "RMC and H-RMC packet types")
    rows = [(t.name, "H-RMC only" if t in (PacketType.UPDATE,
                                           PacketType.PROBE) else "both",
             PACKET_TYPE_USE[t])
            for t in PacketType]
    rep.add("Packet types", ["Type", "Protocols", "Use"], rows)
    return rep


# ---------------------------------------------------------------------------
# Figure 3: release-time information completeness

def fig3_release_info(scale: Optional[str] = None,
                      grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    envs = [("LAN", GROUP_A), ("MAN", GROUP_B), ("WAN", GROUP_C)]
    buffers = (64, 256, 1024) if _scale(scale) == "quick" else BUFFERS_K
    rep = Report("fig3", "% of releases with complete receiver info "
                         "(10 receivers)")
    for label, rmc in (("(a) without updates (original RMC)", True),
                       ("(b) with updates (H-RMC)", False)):
        rows = []
        for buf in buffers:
            row = [f"{buf}K"]
            for _, group in envs:
                # RMC keeps the member table for measurement only
                cfg = {"_rmc": True, "track_membership": True} if rmc \
                    else {}
                res = grid.run(RunSpec.wan(
                    groups=[group.name] * 10, bandwidth_bps=MBPS_10,
                    seed=7, nbytes=nbytes,
                    protocol="rmc" if rmc else "hrmc", cfg=cfg,
                    sndbuf=buf * 1024))
                row.append(round(res.release_complete_pct, 1))
            rows.append(row)
        rep.add(label, ["buffer"] + [e[0] for e in envs], rows)
    rep.notes.append("H-RMC updates should lift completeness toward 100% "
                     "in every environment; RMC is low in low-loss "
                     "environments where NAK feedback is scarce.")
    return rep


# ---------------------------------------------------------------------------
# Figures 10-13: the experimental (LAN) study

def _lan_throughput(grid: Grid, bw: float, nbytes: int, mode_disk: bool,
                    receivers, buffers, seed: int = 3):
    rows = []
    for buf in buffers:
        row = [f"{buf}K"]
        for n in receivers:
            res = grid.run(RunSpec.lan(n, bw, seed=seed, nbytes=nbytes,
                                       sndbuf=buf * 1024,
                                       disk=mode_disk))
            row.append(round(res.throughput_mbps, 2))
        rows.append(row)
    return rows


def fig10_throughput_10mbps(scale: Optional[str] = None,
                            grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, large = file_sizes(scale)
    rep = Report("fig10", "Throughput of H-RMC on a 10 Mbps network")
    receivers = (1, 2, 3)
    headers = ["buffer"] + [f"{n} rcv" for n in receivers]
    rep.add("(a) memory to memory, small file",
            headers, _lan_throughput(grid, MBPS_10, small, False,
                                     receivers, BUFFERS_K))
    rep.add("(b) memory to memory, large file",
            headers, _lan_throughput(grid, MBPS_10, large, False,
                                     receivers, BUFFERS_K))
    rep.add("(c) disk to disk, small file",
            headers, _lan_throughput(grid, MBPS_10, small, True,
                                     receivers, BUFFERS_K))
    rep.add("(d) disk to disk, large file",
            headers, _lan_throughput(grid, MBPS_10, large, True,
                                     receivers, BUFFERS_K))
    rep.notes.append("expect: throughput rises with buffer size and "
                     "saturates near 8.5-9 Mbps by 512K (paper Fig. 10).")
    return rep


def _lan_feedback(grid: Grid, bw: float, nbytes: int, mode_disk: bool,
                  receivers, buffers, seed: int = 3):
    rate_rows, nak_rows = [], []
    for buf in buffers:
        rr = [f"{buf}K"]
        nr = [f"{buf}K"]
        for n in receivers:
            res = grid.run(RunSpec.lan(n, bw, seed=seed, nbytes=nbytes,
                                       sndbuf=buf * 1024,
                                       disk=mode_disk))
            rr.append(res.sender_stats.rate_requests_rcvd +
                      res.sender_stats.urgent_requests_rcvd)
            nr.append(res.sender_stats.naks_rcvd)
        rate_rows.append(rr)
        nak_rows.append(nr)
    return rate_rows, nak_rows


def fig11_feedback_10mbps(scale: Optional[str] = None,
                          grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, large = file_sizes(scale)
    rep = Report("fig11", "Feedback activity of H-RMC on 10 Mbps "
                          "(disk tests)")
    receivers = (1, 2, 3)
    headers = ["buffer"] + [f"{n} rcv" for n in receivers]
    rr, nr = _lan_feedback(grid, MBPS_10, small, True, receivers,
                           BUFFERS_K)
    rep.add("(a) rate requests, small file, disk to disk", headers, rr)
    rep.add("(b) NAKs, small file, disk to disk", headers, nr)
    rr, nr = _lan_feedback(grid, MBPS_10, large, True, receivers,
                           BUFFERS_K)
    rep.add("(c) rate requests, large file, disk to disk", headers, rr)
    rep.add("(d) NAKs, large file, disk to disk", headers, nr)
    rep.notes.append("expect: rate requests shrink as buffers grow; NAKs "
                     "stay near zero at 10 Mbps (paper Fig. 11).")
    return rep


def fig12_throughput_100mbps(scale: Optional[str] = None,
                             grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, large = file_sizes(scale)
    rep = Report("fig12", "Throughput of H-RMC on a 100 Mbps network "
                          "(memory to memory)")
    receivers = (1, 2, 3)
    headers = ["buffer"] + [f"{n} rcv" for n in receivers]
    rep.add("(a) small file", headers,
            _lan_throughput(grid, MBPS_100, small, False, receivers,
                            BUFFERS_K))
    rep.add("(b) large file", headers,
            _lan_throughput(grid, MBPS_100, large, False, receivers,
                            BUFFERS_K))
    rep.notes.append("expect: strong buffer-size dependence (stop-and-wait "
                     "at small buffers) and higher throughput for the "
                     "larger transfer (paper Fig. 12).")
    return rep


def fig13_nak_100mbps(scale: Optional[str] = None,
                      grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, large = file_sizes(scale)
    rep = Report("fig13", "NAK activity of H-RMC on 100 Mbps "
                          "(memory tests)")
    receivers = (1, 2, 3)
    headers = ["buffer"] + [f"{n} rcv" for n in receivers]
    for label, nbytes in (("(a) small file", small), ("(b) large file",
                                                      large)):
        rows = []
        for buf in BUFFERS_BIG_K:
            row = [f"{buf}K"]
            for n in receivers:
                res = grid.run(RunSpec.lan(n, MBPS_100, seed=3,
                                           nbytes=nbytes,
                                           sndbuf=buf * 1024))
                row.append(res.sender_stats.naks_rcvd)
            rows.append(row)
        rep.add(label, headers, rows)
    rep.notes.append("expect: zero NAKs through 1024K and a sharp onset "
                     "beyond, caused by card-level drops during "
                     "window-length line-rate runs (paper Fig. 13).")
    return rep


# ---------------------------------------------------------------------------
# Figures 14-16: the simulation study

def fig14_groups(scale: Optional[str] = None,
                 grid: Optional[Grid] = None) -> Report:
    rep = Report("fig14", "Simulated characteristic groups and test cases")
    rep.add("(a) characteristic groups",
            ["Group", "Delay", "Loss Rate"],
            [(g.name, f"{g.delay_us // 1000} ms",
              f"{g.loss_rate * 100:g}%")
             for g in (GROUP_A, GROUP_B, GROUP_C)])
    rep.add("(b) test cases", ["Test", "Receivers"],
            [(t, " + ".join(f"{frac:.0%} in {g.name}"
                            for g, frac in mix))
             for t, mix in TEST_CASES.items()])
    return rep


def _sim_study(grid: Grid, bw: float, n_receivers: int, nbytes: int,
               buffers, tests=(1, 2, 3, 4, 5), seed: int = 11):
    tput_rows, rr_rows = [], []
    for buf in buffers:
        tr = [f"{buf}K"]
        rr = [f"{buf}K"]
        for t in tests:
            res = grid.run(RunSpec.wan(test=t, receivers=n_receivers,
                                       bandwidth_bps=bw, seed=seed,
                                       nbytes=nbytes,
                                       sndbuf=buf * 1024))
            tr.append(round(res.throughput_mbps, 2))
            rr.append(res.sender_stats.rate_requests_rcvd +
                      res.sender_stats.urgent_requests_rcvd)
        tput_rows.append(tr)
        rr_rows.append(rr)
    return tput_rows, rr_rows


def fig15_sim_10mbps(scale: Optional[str] = None,
                     grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    buffers = (64, 256, 1024) if _scale(scale) == "quick" else BUFFERS_K
    rep = Report("fig15", "H-RMC performance on a 10 Mbps network "
                          "(simulated)")
    headers = ["buffer"] + [f"Test {t}" for t in (1, 2, 3, 4, 5)]
    tput, rr = _sim_study(grid, MBPS_10, 10, nbytes, buffers)
    rep.add("(a) throughput, 10 receivers (Mbps)", headers, tput)
    rep.add("(b) rate reduce requests, 10 receivers", headers, rr)
    many = _many_receivers(scale)
    tput_many, _ = _sim_study(grid, MBPS_10, many, nbytes, buffers[-2:],
                              tests=(1, 2, 3))
    rep.add(f"(c) throughput, {many} receivers (Mbps, Tests 1-3)",
            ["buffer", "Test 1", "Test 2", "Test 3"], tput_many)
    rep.notes.append("expect: Test 1 > Test 2 > Test 3; Tests 4 and 5 "
                     "close to Test 3 (the protocol adapts to the least "
                     "capable receiver); modest decrease with many "
                     "receivers (paper Fig. 15).")
    return rep


def fig16_sim_100mbps(scale: Optional[str] = None,
                      grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small
    buffers = (64, 256, 1024) if _scale(scale) == "quick" else BUFFERS_K
    rep = Report("fig16", "H-RMC performance on a 100 Mbps network "
                          "(simulated, 10 receivers)")
    headers = ["buffer"] + [f"Test {t}" for t in (1, 2, 3)]
    tput, rr = _sim_study(grid, MBPS_100, 10, nbytes, buffers,
                          tests=(1, 2, 3))
    rep.add("(a) throughput (Mbps)", headers, tput)
    rep.add("(b) rate reduce requests", headers, rr)
    rep.notes.append("expect: same ordering as Fig. 15 with more rate "
                     "requests than at 10 Mbps (receive windows fill "
                     "faster while applications read no faster).")
    return rep


def scaling_100rcv(scale: Optional[str] = None,
                   grid: Optional[Grid] = None) -> Report:
    """Section 5.2 claim: ~66 Mbps with 100 receivers on 100 Mbps."""
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    many = _many_receivers(scale)
    rep = Report("scaling", f"Throughput vs receiver count, 100 Mbps, "
                            f"large buffers")
    rows = []
    for n in (1, 10, many):
        res = grid.run(RunSpec.wan(test=1, receivers=n,
                                   bandwidth_bps=MBPS_100, seed=11,
                                   nbytes=small, sndbuf=1024 * 1024))
        rows.append([n, round(res.throughput_mbps, 2),
                     res.sender_stats.updates_rcvd])
    rep.add("throughput vs group size",
            ["receivers", "Mbps", "updates at sender"], rows)
    rep.notes.append("expect: only a modest decrease out to ~100 "
                     "receivers (paper reports ~66 Mbps max, 'not a "
                     "significant decrease').")
    return rep


# ---------------------------------------------------------------------------
# Section 6: protocol comparison (TCP / RMC / baselines)

def baselines_compare(scale: Optional[str] = None,
                      grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    rep = Report("baselines", "H-RMC vs RMC, ACK-based, polling-based "
                              "and TCP-like unicast (10 Mbps LAN, "
                              "3 receivers, 256K buffers)")
    rows = []
    for proto in ("hrmc", "rmc", "ack", "polling", "tcp"):
        res = grid.run(RunSpec.lan(3, MBPS_10, seed=5, nbytes=small,
                                   protocol=proto, sndbuf=256 * 1024))
        rows.append([proto, round(res.throughput_mbps, 2),
                     res.feedback_total, res.sender_stats.retrans_pkts,
                     "yes" if res.ok else "NO"])
    rep.add("protocol comparison",
            ["protocol", "Mbps", "feedback pkts", "retrans", "reliable"],
            rows)
    rep.notes.append("expect: H-RMC ~= RMC ~= ACK in throughput with far "
                     "less feedback than ACK; TCP-like unicast pays ~n x "
                     "in service time (paper section 6).")
    return rep


# ---------------------------------------------------------------------------
# Ablations

def ablation_updates(scale: Optional[str] = None,
                     grid: Optional[Grid] = None) -> Report:
    """Isolates what UPDATEs contribute: RMC-style (ungated) release
    with the member table tracked, with and without periodic updates --
    exactly the Figure 3 construction."""
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small
    rep = Report("ablation-updates", "Periodic updates on/off "
                                     "(release-time information)")
    rows = []
    for env, group in (("LAN", GROUP_A), ("WAN", GROUP_C)):
        for updates in (False, True):
            # RMC-style ungated release, expressed as config so the
            # updates switch survives (the rmc entry point would force
            # updates off); 1024K buffers so data outlives one fixed
            # update period before release -- the Figure 3 setting
            cfg = {"reliable_release": False, "probes_enabled": False,
                   "dynamic_update_timer": False,
                   "updates_enabled": updates, "track_membership": True,
                   "expected_receivers": None}
            res = grid.run(RunSpec.wan(
                groups=[group.name] * 10, bandwidth_bps=MBPS_10, seed=7,
                nbytes=nbytes, protocol="hrmc", cfg=cfg,
                sndbuf=1024 * 1024))
            rows.append([env, "on" if updates else "off",
                         round(res.release_complete_pct, 1),
                         res.sender_stats.updates_rcvd,
                         round(res.throughput_mbps, 2)])
    rep.add("updates ablation",
            ["env", "updates", "info %", "updates rcvd", "Mbps"], rows)
    rep.notes.append("expect: updates raise release-time completeness, "
                     "most dramatically at low loss where NAK feedback "
                     "is scarce (the Figure 3 mechanism).")
    return rep


def ablation_probes(scale: Optional[str] = None,
                    grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    rep = Report("ablation-probes", "Probe-before-release on/off "
                                    "(reliability with small buffers)")
    arms = [
        ("H-RMC (probes on)", "hrmc", {}),
        ("RMC, MINBUF=10", "rmc", {"_rmc": True}),
        # the hazard case the MINBUF heuristic is protecting against:
        # shrink the hold time and the pure-NAK design drops data
        ("RMC, MINBUF=1", "rmc", {"_rmc": True, "minbuf_rtts": 1}),
        ("H-RMC, MINBUF=1", "hrmc", {"minbuf_rtts": 1}),
    ]
    rows = []
    for label, proto, cfg in arms:
        res = grid.run(RunSpec.wan(
            groups=["C"] * 10, bandwidth_bps=MBPS_10, seed=9,
            nbytes=nbytes, protocol=proto, cfg=cfg, sndbuf=64 * 1024,
            max_sim_s=120))
        rows.append([label, res.reliability_violations, res.lost_bytes,
                     "yes" if res.ok else "NO",
                     round(res.throughput_mbps, 2)])
    rep.add("probes ablation (WAN, 64K buffers)",
            ["variant", "NAK_ERRs", "lost bytes", "all bytes delivered",
             "Mbps"], rows)
    rep.notes.append("expect: at MINBUF=10 RMC violations are rare (the "
                     "paper saw none); shrink the hold time and pure-NAK "
                     "RMC drops data while H-RMC still delivers "
                     "everything -- probes, not the hold heuristic, are "
                     "what guarantee reliability.")
    return rep


def ablation_update_timer(scale: Optional[str] = None,
                          grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    # the +-1 jiffy/period drift needs ~13 s to reach the floor from the
    # 50-jiffy start, so the low-loss arm gets a long transfer (this is
    # the regime the paper's 10-90 s transfers lived in)
    sizes = {"LAN": 16_000_000, "WAN": small}
    rep = Report("ablation-update-timer", "Dynamic vs fixed update period")
    rows = []
    for env, group in (("LAN", GROUP_A), ("WAN", GROUP_C)):
        for dynamic in (False, True):
            res = grid.run(RunSpec.wan(
                groups=[group.name] * 10, bandwidth_bps=MBPS_10, seed=13,
                nbytes=sizes[env],
                cfg={"dynamic_update_timer": dynamic},
                sndbuf=256 * 1024, max_sim_s=600))
            rows.append([env, "dynamic" if dynamic else "fixed",
                         res.sender_stats.probes_sent,
                         res.sender_stats.updates_rcvd,
                         round(res.throughput_mbps, 2)])
    rep.add("update-timer ablation",
            ["env", "timer", "probes", "updates", "Mbps"], rows)
    rep.notes.append("expect: the dynamic timer trades updates for probes "
                     "per environment -- more updates where probes were "
                     "frequent (low loss), fewer where NAKs suffice.")
    return rep


def ablation_early_probes(scale: Optional[str] = None,
                          grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    rep = Report("ablation-early-probes", "Future work (1): early probes "
                                          "vs stop-and-wait at small "
                                          "buffers (100 Mbps)")
    rows = []
    for early in (False, True):
        for buf in (64, 128, 256):
            res = grid.run(RunSpec.lan(2, MBPS_100, seed=5, nbytes=small,
                                       cfg={"early_probes": early},
                                       sndbuf=buf * 1024))
            rows.append(["on" if early else "off", f"{buf}K",
                         round(res.throughput_mbps, 2),
                         res.sender_stats.probes_sent])
    rep.add("early-probe ablation",
            ["early probes", "buffer", "Mbps", "probes"], rows)
    rep.notes.append("expect: probing before release is due overlaps the "
                     "wait with transmission and lifts small-buffer "
                     "throughput at 100 Mbps.")
    return rep


def ablation_mcast_probes(scale: Optional[str] = None,
                          grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    many = _many_receivers(scale)
    rep = Report("ablation-mcast-probes", "Future work (2): multicast "
                                          "probes above a threshold")
    rows = []
    for threshold in (None, 5):
        res = grid.run(RunSpec.wan(
            test=1, receivers=many, bandwidth_bps=MBPS_10, seed=17,
            nbytes=nbytes, cfg={"mcast_probe_threshold": threshold},
            sndbuf=256 * 1024))
        rows.append(["unicast" if threshold is None else f">= {threshold}",
                     res.sender_stats.probes_sent,
                     round(res.throughput_mbps, 2)])
    rep.add(f"probe fan-out, {many} receivers",
            ["probe mode", "probe packets", "Mbps"], rows)
    rep.notes.append("expect: one multicast probe replaces a unicast "
                     "probe storm when many receivers lack state.")
    return rep


def ablation_minbuf(scale: Optional[str] = None,
                    grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    rep = Report("ablation-minbuf", "MINBUF sweep (buffer-hold heuristic)")
    rows = []
    for minbuf in (1, 2, 5, 10, 20):
        res = grid.run(RunSpec.wan(
            groups=["B"] * 10, bandwidth_bps=MBPS_10, seed=19,
            nbytes=nbytes, cfg={"minbuf_rtts": minbuf},
            sndbuf=256 * 1024))
        rows.append([minbuf, round(res.throughput_mbps, 2),
                     res.sender_stats.probes_sent,
                     res.sender_stats.naks_rcvd])
    rep.add("MINBUF ablation (MAN, 256K buffers)",
            ["MINBUF (RTTs)", "Mbps", "probes", "NAKs"], rows)
    rep.notes.append("expect: MINBUF trades throughput against feedback "
                     "volume -- shrinking the hold releases (and probes) "
                     "for data still in flight, inflating NAK/probe "
                     "traffic, while growing it slows the pipeline. "
                     "Reliability holds at every setting because probes, "
                     "not the hold, provide the guarantee (contrast the "
                     "probes ablation, where RMC at MINBUF=1 loses data).")
    return rep


def ablation_local_recovery(scale: Optional[str] = None,
                            grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    rep = Report("ablation-local-recovery", "Future work (3): local "
                                            "recovery")
    rows = []
    for local in (False, True):
        res = grid.run(RunSpec.wan(
            groups=["C"] * 10, bandwidth_bps=MBPS_10, seed=23,
            nbytes=nbytes, cfg={"local_recovery": local},
            sndbuf=256 * 1024))
        rows.append(["on" if local else "off",
                     res.sender_stats.naks_rcvd,
                     res.sender_stats.retrans_pkts,
                     res.receiver_stats.local_repairs_sent,
                     res.receiver_stats.local_repairs_used,
                     round(res.throughput_mbps, 2)])
    rep.add("local recovery (WAN group, 10 receivers)",
            ["local recovery", "NAKs at sender", "sender retrans",
             "peer repairs sent", "peer repairs used", "Mbps"], rows)
    rep.notes.append("expect: peers repair uncorrelated tail-link losses "
                     "locally, cutting NAKs and retransmissions at the "
                     "sender.")
    return rep


def ablation_fec(scale: Optional[str] = None,
                 grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    rep = Report("ablation-fec", "Future work (4): forward error "
                                 "correction")
    rows = []
    for fec in (False, True):
        res = grid.run(RunSpec.wan(
            groups=["C"] * 10, bandwidth_bps=MBPS_10, seed=29,
            nbytes=nbytes, cfg={"fec_enabled": fec}, sndbuf=256 * 1024))
        rows.append(["on" if fec else "off",
                     res.sender_stats.naks_rcvd,
                     res.sender_stats.fec_pkts_sent,
                     res.receiver_stats.fec_repairs,
                     round(res.throughput_mbps, 2)])
    rep.add("FEC (WAN group, 2% loss, 10 receivers)",
            ["FEC", "NAKs at sender", "parity sent", "repairs", "Mbps"],
            rows)
    rep.notes.append("expect: one parity per block repairs isolated "
                     "losses without a NAK round trip -- fewer NAKs at "
                     "the sender.")
    return rep


# ---------------------------------------------------------------------------
# Chaos: fault injection + invariant checking (beyond the paper, which
# validated on a clean testbed)

def chaos_suite(scale: Optional[str] = None,
                grid: Optional[Grid] = None) -> Report:
    """Seeded random fault plans (link flaps/loss, NIC bursts and
    corruption, CPU pauses, clock trouble, receiver crashes with and
    without restart) with the protocol-invariant checker attached.
    The claim under test: every safety property holds through every
    fault, and surviving receivers always get the whole stream."""
    grid = grid if grid is not None else Grid()
    n_seeds = 12 if _scale(scale) == "full" else 6
    nbytes = 250_000
    rep = Report("chaos", "H-RMC under seeded fault injection "
                          "(3 receivers, 10 Mbps LAN)")
    rows = []
    obs_tables = []
    for seed in range(1, n_seeds + 1):
        # one observed run per sweep: the first seed doubles as the
        # suite's observability sample (metrics + spans in the report)
        res = grid.run(RunSpec.chaos(
            3, MBPS_10, seed=seed, horizon_us=1_000_000, nbytes=nbytes,
            max_sim_s=120, obs=(seed == 1)))
        if res.obs_tables:
            obs_tables = res.obs_tables
        rows.append([seed, res.plan_actions, res.fault_events,
                     ",".join(map(str, res.crashed_receivers)) or "-",
                     ",".join(map(str, res.restarted_receivers)) or "-",
                     res.invariant_checks,
                     "yes" if res.surviving_ok else "NO"])
    rep.add("chaos sweep",
            ["seed", "plan actions", "fault events", "crashed",
             "restarted", "invariant checks", "survivors ok"], rows)
    for title, headers, obs_rows in obs_tables:
        rep.add(f"seed 1 observability: {title}", headers, obs_rows)
    rep.notes.append("expect: 'survivors ok' on every seed and zero "
                     "invariant violations (a violation aborts the run "
                     "with the offending trace slice).")
    return rep


# ---------------------------------------------------------------------------
# Registry (the inventory it must match is repro.harness.inventory)

EXPERIMENTS: dict[str, Callable[..., Report]] = {
    "table1": table1_packet_types,
    "fig3": fig3_release_info,
    "fig10": fig10_throughput_10mbps,
    "fig11": fig11_feedback_10mbps,
    "fig12": fig12_throughput_100mbps,
    "fig13": fig13_nak_100mbps,
    "fig14": fig14_groups,
    "fig15": fig15_sim_10mbps,
    "fig16": fig16_sim_100mbps,
    "scaling": scaling_100rcv,
    "baselines": baselines_compare,
    "ablation-updates": ablation_updates,
    "ablation-probes": ablation_probes,
    "ablation-update-timer": ablation_update_timer,
    "ablation-early-probes": ablation_early_probes,
    "ablation-mcast-probes": ablation_mcast_probes,
    "ablation-minbuf": ablation_minbuf,
    "ablation-local-recovery": ablation_local_recovery,
    "ablation-fec": ablation_fec,
    "chaos": chaos_suite,
}

assert set(INVENTORY) == set(EXPERIMENTS), \
    "experiment registry and inventory diverged"


# ---------------------------------------------------------------------------
# Execution through the fleet

def plan_experiment(exp_id: str,
                    scale: Optional[str] = None) -> list[RunSpec]:
    """The experiment's RunSpec grid, without executing anything."""
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}") from None
    grid = Grid()
    fn(scale, grid)
    return grid.specs


def run_experiments(exp_ids: list[str], scale: Optional[str] = None,
                    fleet: Optional[Fleet] = None) -> dict[str, Report]:
    """Plan every experiment, execute the union of their grids in one
    fleet sweep (shared cells are simulated once), then assemble each
    report.  Reports are byte-identical regardless of worker count or
    cache temperature."""
    fleet = fleet if fleet is not None else Fleet()
    specs: list[RunSpec] = []
    for exp_id in exp_ids:
        specs.extend(plan_experiment(exp_id, scale))
    results = fleet.run_specs(specs)
    return {exp_id: EXPERIMENTS[exp_id](scale, Grid(results))
            for exp_id in exp_ids}


def run_experiment(exp_id: str, scale: Optional[str] = None,
                   fleet: Optional[Fleet] = None) -> Report:
    return run_experiments([exp_id], scale, fleet)[exp_id]
