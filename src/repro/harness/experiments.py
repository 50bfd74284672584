"""One function per paper table/figure, plus the ablation studies.

Every experiment returns a :class:`Report` whose tables carry the same
rows/series the paper plots.  Transfers default to a 1:5 scaled file
size (2 MB / 8 MB instead of 10 MB / 40 MB) so the full suite runs in
minutes; set ``REPRO_FULL_SCALE=1`` (or pass ``scale="full"``) for
paper-size runs.

Each experiment states its shape claims -- who wins, trend directions,
where the NAK onset falls -- with :meth:`Report.claim`, on the numbers
it has just computed; ``hrmc-experiments`` exits 1 when one fails.

Every experiment expresses its simulations as a
:class:`~repro.workloads.spec.RunSpec` grid executed through the fleet
(:mod:`repro.fleet`): the experiment function is evaluated once to
*plan* the grid, the fleet runs (or cache-serves) the specs -- on
every usable CPU by default -- and the function is evaluated again to
assemble the report from the summaries.  Serial, parallel and
warm-cache executions produce byte-identical reports.  Claims stated
on the planning pass read :data:`~repro.fleet.grid.PROBE` zeros; that
report is discarded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from statistics import median
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
    claims: list = field(default_factory=list)  # (text, holds)

    def add(self, title: str, headers, rows) -> None:
        self.tables.append((title, list(headers), [list(r) for r in rows]))

    def claim(self, text: str, holds) -> None:
        """State one claim, checked on values the experiment computed."""
        self.claims.append((text, bool(holds)))

    @property
    def failed(self) -> list[str]:
        return [text for text, holds in self.claims if not holds]

    def render(self) -> str:
        parts = [f"### {self.exp_id}: {self.title}"]
        for title, headers, rows in self.tables:
            parts.append(format_table(title, headers, rows))
        if self.claims:
            parts.append("\n".join(f"claim {'✓' if holds else '✗'} {text}"
                                   for text, holds in self.claims))
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


def _columns(rows) -> list[list]:
    """A table's value columns (every column after the row label)."""
    return [[row[i] for row in rows] for i in range(1, len(rows[0]))]


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
    rep.claim("11 packet types: nine from RMC, two new in H-RMC",
              len(rows) == 11)
    rep.claim("UPDATE and PROBE are the H-RMC-only types",
              {r[0] for r in rows if r[1] == "H-RMC only"}
              == {"UPDATE", "PROBE"})
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
    panels = []
    for label, rmc in (("(a) without updates (original RMC)", True),
                       ("(b) with updates (H-RMC)", False)):
        rows = []
        for buf in buffers:
            row = [f"{buf}K"]
            for _, group in envs:
                res = grid.run(RunSpec.wan(
                    groups=[group.name] * 10, bandwidth_bps=MBPS_10,
                    seed=7, nbytes=nbytes,
                    protocol="rmc" if rmc else "hrmc",
                    sndbuf=buf * 1024))
                row.append(round(res.release_complete_pct, 1))
            rows.append(row)
        rep.add(label, ["buffer"] + [e[0] for e in envs], rows)
        panels.append(_columns(rows))
    rmc, hrmc = panels
    for (env, _), rmc_env, hrmc_env in zip(envs, rmc, hrmc):
        rep.claim(f"{env}: updates never lower completeness, at any buffer",
                  all(h >= r for r, h in zip(rmc_env, hrmc_env)))
        rep.claim(f"{env}: H-RMC above 80 % at every buffer",
                  min(hrmc_env) > 80.0)
    rep.claim("LAN: RMC below 60 % at every buffer (NAK feedback is "
              "scarce at low loss)", max(rmc[0]) < 60.0)
    rep.claim("RMC's best WAN completeness beats its best LAN one (loss "
              "brings NAKs)", max(rmc[2]) > max(rmc[0]))
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
    series = []   # throughput by buffer, per panel and receiver count
    for label, nbytes, disk in (
            ("(a) memory to memory, small file", small, False),
            ("(b) memory to memory, large file", large, False),
            ("(c) disk to disk, small file", small, True),
            ("(d) disk to disk, large file", large, True)):
        rows = _lan_throughput(grid, MBPS_10, nbytes, disk, receivers,
                               BUFFERS_K)
        rep.add(label, headers, rows)
        series.extend(_columns(rows))
    rep.claim("buffers help: 64K is at most 0.5 Mbit/s above any buffer "
              "from 256K up, in every panel",
              all(t[0] <= min(t[2:]) + 0.5 for t in series))
    rep.claim("saturation: 512K and 1024K within 15 % in every panel",
              all(abs(t[-1] - t[-2]) <= 0.15 * max(t[-2:]) for t in series))
    rep.claim("1024K sits at 6-10 Mbit/s in every panel (paper ~8.5)",
              all(6.0 <= t[-1] <= 10.0 for t in series))
    at_1024k = [t[-1] for t in series[:3]]
    rep.claim("receiver count barely matters: 1-3 receivers within "
              "1.5 Mbit/s at 1024K, memory to memory, small file",
              max(at_1024k) - min(at_1024k) < 1.5)
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
    rr_small, nr_small = _lan_feedback(grid, MBPS_10, small, True,
                                       receivers, BUFFERS_K)
    rep.add("(a) rate requests, small file, disk to disk", headers,
            rr_small)
    rep.add("(b) NAKs, small file, disk to disk", headers, nr_small)
    rr_large, nr_large = _lan_feedback(grid, MBPS_10, large, True,
                                       receivers, BUFFERS_K)
    rep.add("(c) rate requests, large file, disk to disk", headers,
            rr_large)
    rep.add("(d) NAKs, large file, disk to disk", headers, nr_large)
    rep.claim("rate requests at 1024K no more than at 64K, both files, "
              "every receiver count",
              all(c[0] >= c[-1] for rows in (rr_small, rr_large)
                  for c in _columns(rows)))
    rep.claim("rate requests flow at 64K, both files",
              all(sum(rows[0][1:]) > 0 for rows in (rr_small, rr_large)))
    rep.claim("very few NAKs: under 70 per panel (5 % of the ~1400 "
              "packets of 2 MB)",
              all(sum(sum(r[1:]) for r in rows) < 70
                  for rows in (nr_small, nr_large)))
    return rep


def fig12_throughput_100mbps(scale: Optional[str] = None,
                             grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, large = file_sizes(scale)
    rep = Report("fig12", "Throughput of H-RMC on a 100 Mbps network "
                          "(memory to memory)")
    receivers = (1, 2, 3)
    headers = ["buffer"] + [f"{n} rcv" for n in receivers]
    panels = []
    for label, nbytes in (("(a) small file", small),
                          ("(b) large file", large)):
        rows = _lan_throughput(grid, MBPS_100, nbytes, False, receivers,
                               BUFFERS_K)
        rep.add(label, headers, rows)
        panels.append(_columns(rows))
    rep.claim("stop-and-wait at small buffers: 1024K beats 64K by more "
              "than 1.5x, and 64K is never the fastest, both files, every "
              "receiver count",
              all(t[-1] > 1.5 * t[0] and t[0] < max(t)
                  for cols in panels for t in cols))
    rep.claim("the large file saturates at least as high as the small one "
              "(1 receiver)", max(panels[1][0]) >= max(panels[0][0]))
    return rep


def fig13_nak_100mbps(scale: Optional[str] = None,
                      grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, large = file_sizes(scale)
    rep = Report("fig13", "NAK activity of H-RMC on 100 Mbps "
                          "(memory tests)")
    receivers = (1, 2, 3)
    headers = ["buffer"] + [f"{n} rcv" for n in receivers]
    naks = []     # NAKs summed over receiver counts, by buffer, per panel
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
        naks.append({r[0]: sum(r[1:]) for r in rows})
    rep.claim("zero NAKs through 1024K, both files",
              all(panel[f"{buf}K"] == 0 for panel in naks
                  for buf in BUFFERS_K))
    # the onset needs transfers longer than the buffer (line-rate runs
    # of a window's length); at quick scale the small file fits inside
    # the big buffers whole, so only the large file shows it
    rep.claim("NAK onset beyond 1024K (card-level drops), large file",
              naks[1]["2048K"] + naks[1]["4096K"] > 0)
    return rep


# ---------------------------------------------------------------------------
# Figures 14-16: the simulation study

def fig14_groups(scale: Optional[str] = None,
                 grid: Optional[Grid] = None) -> Report:
    rep = Report("fig14", "Simulated characteristic groups and test cases")
    groups = [(g.name, f"{g.delay_us // 1000} ms", f"{g.loss_rate * 100:g}%")
              for g in (GROUP_A, GROUP_B, GROUP_C)]
    rep.add("(a) characteristic groups", ["Group", "Delay", "Loss Rate"],
            groups)
    rep.add("(b) test cases", ["Test", "Receivers"],
            [(t, " + ".join(f"{frac:.0%} in {g.name}"
                            for g, frac in mix))
             for t, mix in TEST_CASES.items()])
    rep.claim("groups A, B, C: 2 ms / 0.005 %, 20 ms / 0.5 %, 100 ms / 2 %",
              groups == [("A", "2 ms", "0.005%"), ("B", "20 ms", "0.5%"),
                         ("C", "100 ms", "2%")])
    rep.claim("five test cases", len(TEST_CASES) == 5)
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


#: Figure 15's 1024K row is judged on the median over these seeds, the
#: report's own first.  At quick scale the 1 MB file fits in a 1024K
#: buffer whole, so one seed's time is wherever its last few losses fell
#: (EXPERIMENTS.md caveat 6).
SEEDS_1024K = range(11, 16)


def fig15_sim_10mbps(scale: Optional[str] = None,
                     grid: Optional[Grid] = None) -> Report:
    grid = grid if grid is not None else Grid()
    small, _ = file_sizes(scale)
    nbytes = small // 2
    buffers = (64, 256, 1024) if _scale(scale) == "quick" else BUFFERS_K
    rep = Report("fig15", "H-RMC performance on a 10 Mbps network "
                          "(simulated)")
    tests = (1, 2, 3, 4, 5)
    headers = ["buffer"] + [f"Test {t}" for t in tests]
    tput, rr = _sim_study(grid, MBPS_10, 10, nbytes, buffers)
    rep.add("(a) throughput, 10 receivers (Mbps)", headers, tput)
    rep.add("(b) rate reduce requests, 10 receivers", headers, rr)
    many = _many_receivers(scale)
    tput_many, _ = _sim_study(grid, MBPS_10, many, nbytes, buffers[-2:],
                              tests=(1, 2, 3))
    rep.add(f"(c) throughput, {many} receivers (Mbps, Tests 1-3)",
            ["buffer", "Test 1", "Test 2", "Test 3"], tput_many)
    t1, t2, t3, t4, t5 = medians = [
        median(grid.run(RunSpec.wan(
            test=t, receivers=10, bandwidth_bps=MBPS_10, seed=seed,
            nbytes=nbytes, sndbuf=1024 * 1024)).throughput_mbps
            for seed in SEEDS_1024K)
        for t in tests]
    rep.add(f"(d) throughput at 1024K, 10 receivers, median over seeds "
            f"{SEEDS_1024K[0]}-{SEEDS_1024K[-1]} (Mbps)", headers,
            [["1024K"] + [round(m, 2) for m in medians]])

    rep.claim("Test 1 > Test 2 > Test 3 at every buffer",
              all(row[1] > row[2] > row[3] for row in tput))
    rep.claim("Test 1 > Test 2 > Test 3 at 1024K, seed median",
              t1 > t2 > t3)
    rep.claim("Tests 4 and 5 within 20 % of Test 3 wherever the file "
              "exceeds the buffer (the least capable receiver sets the pace)",
              all(abs(row[i] - row[3]) <= 0.2 * row[3]
                  for row in tput[:-1] for i in (4, 5)))
    rep.claim("Tests 4 and 5 below Test 2, and Test 4 under the Test 2/3 "
              "midpoint + 0.5, at 1024K, seed median",
              t4 < t2 and t5 < t2 and t4 < (t2 + t3) / 2 + 0.5)
    rep.claim("throughput at 1024K at least that at 64K, every test",
              all(c[-1] >= c[0] for c in _columns(tput)))
    rep.claim("the lossy tests (2-5) send more rate requests than Test 1",
              sum(sum(r[2:]) for r in rr) > sum(r[1] for r in rr))
    rep.claim(f"{many} receivers keep more than 0.4x the 10-receiver seed "
              f"median (Test 1, 1024K)", tput_many[-1][1] > 0.4 * t1)
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
    rep.claim("Test 1 > Test 2 > Test 3 at 1024K",
              tput[-1][1] > tput[-1][2] > tput[-1][3])
    rep.claim("throughput at 1024K at least that at 64K, every test",
              all(c[-1] >= c[0] for c in _columns(tput)))
    rep.notes.append("the paper's 'more rate requests than at 10 Mbps' is "
                     "not claimed: counts over transfers of different "
                     "length do not compare (EXPERIMENTS.md caveat 2).")
    return rep


#: group sizes of section 5.2's feedback cells in :func:`scaling_100rcv`
FEEDBACK_GROUP_SIZES = (2, 3, 5)


def feedback_spec(n: int) -> RunSpec:
    """Section 5.2's feedback cell for a group of ``n``: test case 2 at
    10 Mbit/s, 150 KB, seed 21, read through its health payload."""
    return RunSpec.wan(test=2, receivers=n, bandwidth_bps=MBPS_10, seed=21,
                       nbytes=150_000, sndbuf=128 * 1024)


def scaling_100rcv(scale: Optional[str] = None,
                   grid: Optional[Grid] = None) -> Report:
    """Section 5.2 claims: ~66 Mbps with 100 receivers on 100 Mbps, and
    feedback at the sender that does not implode as the group grows.
    The feedback cells are fixed (test case 2 at 10 Mbit/s, 150 KB,
    seed 21, where every cell loses the same one packet); scale does
    not apply to them."""
    from repro.obs.health import health_cell, payload

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
    (_, one, _), (_, ten, ups_ten), (_, most, ups_most) = rows
    rep.claim(f"{many} receivers keep more than 0.4x the 10-receiver "
              f"throughput ({_scale(scale)} scale, {small / 1e6:g} MB)",
              most > 0.4 * ten)
    rep.claim("10 receivers keep more than half the 1-receiver throughput",
              ten > 0.5 * one)
    rep.claim(f"updates at the sender grow from 10 to {many} receivers",
              ups_most > ups_ten)
    rep.notes.append("the paper's ~66 Mbps at 100 receivers is not claimed: "
                     "EXPERIMENTS.md caveat 3 and its §5.2 row.")

    results = {n: grid.run(feedback_spec(n)) for n in FEEDBACK_GROUP_SIZES}
    if grid.planning:      # a probe has no books to read
        return rep
    cells = [health_cell(payload(res)) for res in results.values()]
    rep.add("feedback vs group size (test 2, 10 Mbps, 150 KB, seed 21)",
            ["receivers", "loss events", "NAKs at sender",
             "feedback at sender", "retrans bytes"],
            [[int(c[k]) for k in ("group_size", "loss_events",
                                  "naks_at_sender", "feedback_at_sender",
                                  "retrans_bytes")] for c in cells])
    # one UPDATE exchange per member is linear by construction, so the
    # ceilings are per group size rather than an exponent; a receiver
    # that re-requests data it holds breaks both (49 packets and
    # 65 536 B at n = 2 when out-of-order arrivals re-NAKed parked data)
    rep.claim("§5.2 feedback does not implode: every receiver of every "
              "feedback cell gets the whole stream",
              all(res.ok for res in results.values()))
    rep.claim("§5.2 feedback does not implode: one NAK at the sender per "
              "loss event, every group size",
              all(c["naks_at_sender"] == c["loss_events"] for c in cells))
    rep.claim("§5.2 feedback does not implode: the same loss events at "
              "every group size",
              len({c["loss_events"] for c in cells}) == 1)
    rep.claim("§5.2 feedback does not implode: feedback at the sender "
              "beyond one UPDATE per member is constant in n",
              len({c["feedback_at_sender"] - c["group_size"]
                   for c in cells}) == 1)
    rep.claim("§5.2 feedback does not implode: feedback at the sender "
              "<= 2n + 2, every group size",
              all(c["feedback_at_sender"] <= 2 * c["group_size"] + 2
                  for c in cells))
    rep.claim("§5.2 feedback does not implode: retransmitted bytes "
              "<= 2 x 1460 per loss event, every group size",
              all(c["retrans_bytes"] <= 2 * 1460 * c["loss_events"]
                  for c in cells))
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
    tput, feedback, ok = {}, {}, {}
    for proto in ("hrmc", "rmc", "ack", "polling", "tcp"):
        res = grid.run(RunSpec.lan(3, MBPS_10, seed=5, nbytes=small,
                                   protocol=proto, sndbuf=256 * 1024))
        tput[proto] = round(res.throughput_mbps, 2)
        feedback[proto] = res.feedback_total
        ok[proto] = res.ok
        rows.append([proto, tput[proto], feedback[proto],
                     res.sender_stats.retrans_pkts,
                     "yes" if res.ok else "NO"])
    rep.add("protocol comparison",
            ["protocol", "Mbps", "feedback pkts", "retrans", "reliable"],
            rows)
    rep.claim("every protocol delivers every byte to every receiver",
              all(ok.values()))
    rep.claim("'comparable to RMC': H-RMC above 0.9x RMC's throughput",
              tput["hrmc"] > 0.9 * tput["rmc"])
    rep.claim("H-RMC above 0.9x the ACK-based throughput",
              tput["hrmc"] > 0.9 * tput["ack"])
    rep.claim("H-RMC above 2x the TCP-like unicast, which serves the "
              "receivers one after another", tput["hrmc"] > 2.0 * tput["tcp"])
    rep.claim("H-RMC sends under a fifth of the ACK-based feedback",
              feedback["hrmc"] * 5 < feedback["ack"])
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
                   "updates_enabled": updates,
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
    by = {(r[0], r[1]): r for r in rows}
    for env in ("LAN", "WAN"):
        off, on = by[(env, "off")], by[(env, "on")]
        rep.claim(f"{env}: updates flow only when on",
                  on[3] > 0 and off[3] == 0)
        rep.claim(f"{env}: updates do not lower completeness (1 point "
                  f"slack)", on[2] >= off[2] - 1.0)
    rep.claim("LAN: updates at least double completeness, where NAKs are "
              "scarce", by[("LAN", "on")][2]
              >= 2.0 * max(by[("LAN", "off")][2], 0.5))
    rep.claim("without updates, WAN loss informs the sender more than LAN",
              by[("WAN", "off")][2] > by[("LAN", "off")][2])
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
        ("RMC, MINBUF=10", "rmc", {}),
        # the hazard case the MINBUF heuristic is protecting against:
        # shrink the hold time and the pure-NAK design drops data
        ("RMC, MINBUF=1", "rmc", {"minbuf_rtts": 1}),
        ("H-RMC, MINBUF=1", "hrmc", {"minbuf_rtts": 1}),
    ]
    rows = []
    by = {}
    for label, proto, cfg in arms:
        res = grid.run(RunSpec.wan(
            groups=["C"] * 10, bandwidth_bps=MBPS_10, seed=9,
            nbytes=nbytes, protocol=proto, cfg=cfg, sndbuf=64 * 1024))
        rows.append([label, res.reliability_violations, res.lost_bytes,
                     "yes" if res.ok else "NO",
                     round(res.throughput_mbps, 2)])
        by[label] = res
    rep.add("probes ablation (WAN, 64K buffers)",
            ["variant", "NAK_ERRs", "lost bytes", "all bytes delivered",
             "Mbps"], rows)
    for label in ("H-RMC (probes on)", "H-RMC, MINBUF=1"):
        rep.claim(f"{label}: no NAK_ERR, every byte delivered",
                  by[label].reliability_violations == 0 and by[label].ok)
    rep.claim("RMC, MINBUF=10: no NAK_ERR ('rare and never happened')",
              by["RMC, MINBUF=10"].reliability_violations == 0)
    rmc1 = by["RMC, MINBUF=1"]
    rep.claim("RMC, MINBUF=1: the pure-NAK design drops data (NAK_ERRs, "
              "lost bytes, not delivered)",
              rmc1.reliability_violations > 0 and rmc1.lost_bytes > 0
              and not rmc1.ok)
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
                sndbuf=256 * 1024))
            rows.append([env, "dynamic" if dynamic else "fixed",
                         res.sender_stats.probes_sent,
                         res.sender_stats.updates_rcvd,
                         round(res.throughput_mbps, 2)])
    rep.add("update-timer ablation",
            ["env", "timer", "probes", "updates", "Mbps"], rows)
    by = {(r[0], r[1]): r for r in rows}
    fixed, dynamic = by[("LAN", "fixed")], by[("LAN", "dynamic")]
    rep.claim("LAN: the dynamic timer trades probes for updates (no more "
              "probes, no fewer updates than fixed)",
              dynamic[2] <= fixed[2] and dynamic[3] >= fixed[3])
    rep.claim("WAN: the dynamic timer still delivers",
              by[("WAN", "dynamic")][4] > 0)
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
    off = {r[1]: r[2] for r in rows if r[0] == "off"}
    on = {r[1]: r[2] for r in rows if r[0] == "on"}
    rep.claim("early probes lift throughput at 64K, where the release "
              "wait is stop-and-wait", on["64K"] > off["64K"])
    rep.claim("early probes cost under 15 % at any buffer",
              all(on[buf] > 0.85 * off[buf] for buf in off))
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
    unicast, mcast = rows
    rep.claim("one multicast probe replaces a unicast probe storm (fewer "
              "probe packets)", mcast[1] < unicast[1])
    rep.claim("multicast probes keep above 0.7x the unicast throughput",
              mcast[2] > 0.7 * unicast[2])
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
    by = {r[0]: r for r in rows}
    rep.claim("MINBUF=1 probes at least as much as MINBUF=10 (it releases "
              "data still in flight)", by[1][2] >= by[10][2])
    flat = [by[5][1], by[10][1]]
    rep.claim("the paper's 10 RTTs is on the flat part: 5 and 10 within "
              "50 % of the better", max(flat) - min(flat) < 0.5 * max(flat))
    # a 256K buffer held for 20 RTTs carries at most 256K per 20 RTTs,
    # so doubling the hold from 10 costs at most half (caveat 7)
    rep.claim("20 RTTs is past it: below 10's throughput, above half of it",
              0.5 * by[10][1] < by[20][1] < by[10][1])
    rep.claim("every setting delivers (probes, not the hold, guarantee "
              "reliability)", all(r[1] > 0 for r in rows))
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
    off, on = rows
    rep.claim("peers repair losses (repairs sent and used)",
              on[3] > 0 and on[4] > 0)
    rep.claim("fewer NAKs, and no more retransmissions, at the sender",
              on[1] < off[1] and on[2] <= off[2])
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
    off, on = rows
    rep.claim("parity flows and repairs losses", on[2] > 0 and on[3] > 0)
    rep.claim("under 0.8x the NAKs at the sender",
              on[1] < 0.8 * off[1])
    rep.claim("throughput at least 0.9x that without FEC",
              on[4] >= 0.9 * off[4])
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
    survived = []
    for seed in range(1, n_seeds + 1):
        res = grid.run(RunSpec.chaos(
            3, MBPS_10, seed=seed, horizon_us=1_000_000, nbytes=nbytes))
        rows.append([seed, res.plan_actions, res.fault_events,
                     ",".join(map(str, res.crashed_receivers)) or "-",
                     ",".join(map(str, res.restarted_receivers)) or "-",
                     res.invariant_checks,
                     "yes" if res.surviving_ok else "NO"])
        survived.append(res.surviving_ok)
    rep.add("chaos sweep",
            ["seed", "plan actions", "fault events", "crashed",
             "restarted", "invariant checks", "survivors ok"], rows)
    rep.claim("survivors get the whole stream on every seed",
              all(survived))
    rep.notes.append("an invariant violation aborts its run with the "
                     "offending trace slice, so every row above held "
                     "every invariant.")
    return rep


#: the bounds the two pinned health runs are held to, per cell:
#: (metric of :func:`~repro.obs.health.health_cell`, ">=" or "<=", limit).
#: They catch regressions in kind (suppression stops working, receivers
#: re-request data they hold), not single-packet drift: the wan run
#: measures redundant_ratio 0.267 (one repair multicast to five
#: receivers is redundant at four of them) and implosion_index 3.33; a
#: receiver that NAKs parked out-of-order data measures 0.90 and 75.5.
HEALTH_GATES = {
    "lan": (("naks_sent", "<=", 0), ("retrans_bytes", "<=", 0),
            ("redundant_ratio", "<=", 0.0), ("unresolved", "<=", 0)),
    "wan": (("effectiveness", ">=", 0.4), ("redundant_ratio", "<=", 0.40),
            ("implosion_index", "<=", 5), ("unresolved", "<=", 0)),
}


def protocol_health(scale: Optional[str] = None,
                    grid: Optional[Grid] = None) -> Report:
    """The pinned protocol-health runs, whose tables ``report`` prints
    for any run: a lossless 2-receiver LAN at 100 Mbit/s, where nothing
    may be NAKed or repaired, and 5 receivers on test case 2's WAN,
    large enough that eleven gaps open.  Scale does not apply."""
    from repro.obs.health import CELL_COLUMNS, health_cell, payload

    grid = grid if grid is not None else Grid()
    rep = Report("protocol-health", "Protocol health of the pinned LAN and "
                                    "WAN runs")
    results = {
        "lan": grid.run(RunSpec.lan(2, MBPS_100, seed=7, nbytes=200_000)),
        "wan": grid.run(RunSpec.wan(test=2, receivers=5,
                                    bandwidth_bps=MBPS_10, seed=1,
                                    nbytes=500_000)),
    }
    if grid.planning:      # a probe has no books to read
        return rep
    rows = []
    for label, res in results.items():
        cell = health_cell(payload(res), label=label,
                           throughput_bps=res.throughput_bps)
        rows.append([cell[c] for c in CELL_COLUMNS])
        rep.claim(f"{label}: every receiver gets the whole stream", res.ok)
        if label == "wan":
            # the wan gates judge repair: a cell with nothing to
            # repair reads 0 effectiveness and would blame suppression
            losses = cell["loss_events"]
            rep.claim(f"wan: the cell saw loss (implosion.loss_events "
                      f"{losses:g} >= 1)", losses >= 1)
        for metric, op, limit in HEALTH_GATES[label]:
            value = cell[metric]
            rep.claim(f"{label}: {metric} {value:g} {op} {limit:g}",
                      value >= limit if op == ">=" else value <= limit)
    rep.add("health cells", CELL_COLUMNS, rows)
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
    "protocol-health": protocol_health,
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
    cache temperature.  A cell the run bound cut short is not a
    result: its report gains one failed claim naming the cell."""
    fleet = fleet if fleet is not None else Fleet()
    specs: list[RunSpec] = []
    for exp_id in exp_ids:
        specs.extend(plan_experiment(exp_id, scale))
    results = fleet.run_specs(specs)
    reports = {}
    for exp_id in exp_ids:
        grid = Grid(results)
        rep = reports[exp_id] = EXPERIMENTS[exp_id](scale, grid)
        for spec in grid.specs:
            if results[spec.content_hash()].cut_short:
                rep.claim(f"{spec.describe()}: finished within the run "
                          f"bound", False)
    return reports


def run_experiment(exp_id: str, scale: Optional[str] = None,
                   fleet: Optional[Fleet] = None) -> Report:
    return run_experiments([exp_id], scale, fleet)[exp_id]
