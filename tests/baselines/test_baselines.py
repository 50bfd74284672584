"""Tests for the ACK-based, polling-based and TCP-like baselines."""

import pytest

from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.workloads.groups import GROUP_B, GROUP_C
from repro.workloads.scenarios import build_lan, build_wan


@pytest.mark.parametrize("protocol", ["ack", "polling", "tcp"])
def test_reliable_delivery_on_clean_lan(protocol):
    sc = build_lan(2, 10e6, seed=1)
    res = run_transfer(sc, nbytes=200_000, protocol=protocol,
                       sndbuf=128 * 1024, verify="bytes", max_sim_s=120)
    assert res.ok
    assert all(r.bytes_done == 200_000 for r in res.per_receiver)


LOSSY = GroupSpec("L", delay_us=10_000, loss_rate=0.03)


@pytest.mark.parametrize("protocol,group,seed,nbytes,sndbuf", [
    pytest.param(p, GROUP_B, 2, 150_000, 128 * 1024, id=p)
    for p in ("ack", "polling", "tcp")] + [
    # a receiver's first message is lost: 10.1.0.3's JOIN (ack), and
    # 10.1.0.1's first STATUS (polling); each stalled the transfer
    pytest.param("ack", LOSSY, 6, 150_000, 128 * 1024,
                 id="ack-join-lost"),
    pytest.param("polling", GROUP_C, 2, 300_000, 256 * 1024,
                 id="polling-first-status-lost"),
])
def test_reliable_delivery_under_loss(protocol, group, seed, nbytes, sndbuf):
    sc = build_wan([group] * 3, 10e6, seed=seed)
    res = run_transfer(sc, nbytes=nbytes, protocol=protocol,
                       sndbuf=sndbuf, verify="bytes", max_sim_s=600)
    assert res.ok, f"{protocol} failed under loss"


def test_ack_feedback_scales_with_receivers():
    fb = {}
    for n in (1, 3):
        sc = build_lan(n, 10e6, seed=3)
        res = run_transfer(sc, nbytes=150_000, protocol="ack",
                           sndbuf=128 * 1024)
        assert res.ok
        fb[n] = res.receiver_stats.updates_sent
    # ACK implosion: n receivers ACK every packet
    assert fb[3] > 2.5 * fb[1]


def test_hrmc_feedback_far_below_ack():
    results = {}
    for proto in ("hrmc", "ack"):
        sc = build_lan(3, 10e6, seed=4)
        res = run_transfer(sc, nbytes=400_000, protocol=proto,
                           sndbuf=256 * 1024)
        assert res.ok
        results[proto] = res.feedback_total
    assert results["hrmc"] * 5 < results["ack"]


def test_polling_feedback_bounded_by_polls():
    sc = build_lan(3, 10e6, seed=5)
    res = run_transfer(sc, nbytes=400_000, protocol="polling",
                       sndbuf=256 * 1024)
    assert res.ok
    # receivers only speak when polled (plus join/parting status)
    assert res.receiver_stats.updates_sent <= \
        res.sender_stats.probes_sent + 2 * 3


def test_polling_recovers_from_correlated_loss():
    sc = build_wan([LOSSY] * 3, 10e6, seed=6)
    res = run_transfer(sc, nbytes=150_000, protocol="polling",
                       sndbuf=128 * 1024, max_sim_s=600)
    assert res.ok
    assert res.sender_stats.retrans_pkts > 0
    assert res.sender_stats.retrans_bytes >= res.sender_stats.retrans_pkts


def test_tcp_sequential_pays_n_times():
    per = {}
    for n in (1, 3):
        sc = build_lan(n, 10e6, seed=7)
        res = run_transfer(sc, nbytes=300_000, protocol="tcp",
                           sndbuf=128 * 1024)
        assert res.ok
        per[n] = res.duration_us
    assert per[3] > 2.2 * per[1]


def test_tcp_fast_retransmit_under_loss():
    lossy = GroupSpec("L", delay_us=10_000, loss_rate=0.02)
    sc = build_wan([lossy], 10e6, seed=8)
    res = run_transfer(sc, nbytes=300_000, protocol="tcp",
                       sndbuf=256 * 1024, max_sim_s=600)
    assert res.ok
    assert res.sender_stats.retrans_pkts > 0


def test_ack_window_advances_on_slowest():
    """With one slow (high-delay) receiver, ACK-based throughput is
    paced by it."""
    fast = GroupSpec("F", delay_us=2_000, loss_rate=0.0)
    slow = GroupSpec("S", delay_us=150_000, loss_rate=0.0)
    sc_fast = build_wan([fast] * 2, 10e6, seed=9)
    r_fast = run_transfer(sc_fast, nbytes=200_000, protocol="ack",
                          sndbuf=128 * 1024, max_sim_s=300)
    sc_mixed = build_wan([fast, slow], 10e6, seed=9)
    r_mixed = run_transfer(sc_mixed, nbytes=200_000, protocol="ack",
                           sndbuf=128 * 1024, max_sim_s=300)
    assert r_fast.ok and r_mixed.ok
    assert r_mixed.duration_us > 1.5 * r_fast.duration_us
