"""Ablation: the MINBUF buffer-hold heuristic (paper section 2 sets it
to 10 RTTs)."""

from benchmarks.conftest import table


def test_ablation_minbuf(regen):
    report = regen("ablation-minbuf")
    _, rows = table(report, "MINBUF ablation")
    by = {r[0]: r for r in rows}
    # a tiny hold time forces probing for data still in flight
    assert by[1][2] >= by[10][2], "MINBUF=1 should probe at least as " \
                                  "much as MINBUF=10"
    # the paper's value sits on the flat part: 5 vs 10 both deliver
    flat = [by[k][1] for k in (5, 10)]
    assert max(flat) - min(flat) < 0.5 * max(flat)
    # 20 RTTs is past it.  A 256K buffer held for 20 RTTs carries at
    # most 256K per 20 RTTs (2.4 Mbit/s at this RTT), which is what the
    # run delivers, so doubling the hold from 10 costs at most half.
    # The band used to take in 20 as well: receivers re-requesting
    # parked data held the loss-limited settings (1-5) a fifth lower,
    # near enough to the hold-limited ones (EXPERIMENTS.md caveat 7).
    assert 0.5 * by[10][1] < by[20][1] < by[10][1]
    # reliability holds at every setting (H-RMC property)
    # (ok-ness is implied by the experiment completing with throughput)
    assert all(r[1] > 0 for r in rows)
