"""End-to-end integration tests: full protocol over the full substrate.

These exercise the reliability invariant (every receiver's delivered
stream equals the sent stream byte-for-byte) under lossy networks,
determinism, the RMC hazard path, close semantics and the future-work
extensions.
"""

from dataclasses import replace

from repro.core.config import UPDATE_INITIAL_JIFFIES, HRMCConfig
from repro.core.protocol import open_hrmc_socket
from repro.harness.runner import run_transfer
from repro.kernel.payload import PatternPayload
from repro.net.topology import GroupSpec
from repro.sim.process import Process
from repro.workloads.groups import GROUP_A, GROUP_B, GROUP_C
from repro.workloads.scenarios import build_lan, build_wan


def transfer(scenario, nbytes, **kw):
    return run_transfer(scenario, nbytes=nbytes, **kw)


# -- basic reliability -----------------------------------------------------

def test_lan_transfer_bytes_exact():
    sc = build_lan(2, 10e6, seed=1)
    res = transfer(sc, 300_000, sndbuf=128 * 1024, verify="bytes")
    assert res.ok
    assert all(r.bytes_done == 300_000 for r in res.per_receiver)


def test_wan_lossy_transfer_reliable():
    sc = build_wan([GROUP_C] * 5, 10e6, seed=2)
    res = transfer(sc, 300_000, sndbuf=128 * 1024, verify="bytes",
                   max_sim_s=300)
    assert res.ok
    assert res.reliability_violations == 0
    assert res.sender_stats.naks_rcvd > 0  # 2% loss actually exercised


def test_very_lossy_network_still_reliable():
    harsh = GroupSpec("H", delay_us=50_000, loss_rate=0.10)
    sc = build_wan([harsh] * 3, 10e6, seed=3)
    res = transfer(sc, 120_000, sndbuf=64 * 1024, verify="bytes",
                   max_sim_s=600)
    assert res.ok
    assert res.lost_bytes == 0


def test_single_receiver_tiny_transfer():
    sc = build_lan(1, 10e6, seed=4)
    res = transfer(sc, 100, sndbuf=64 * 1024, verify="bytes")
    assert res.ok
    assert res.per_receiver[0].bytes_done == 100


def test_empty_transfer_completes():
    sc = build_lan(1, 10e6, seed=4)
    res = transfer(sc, 0, sndbuf=64 * 1024)
    assert res.ok
    assert res.per_receiver[0].bytes_done == 0


def test_many_receivers_lan():
    sc = build_lan(8, 10e6, seed=5)
    res = transfer(sc, 200_000, sndbuf=256 * 1024)
    assert res.ok
    assert res.sender_stats.joins_rcvd == 8


def test_mixed_groups_reliable():
    sc = build_wan([GROUP_A] * 3 + [GROUP_B] * 3 + [GROUP_C] * 3, 10e6,
                   seed=6)
    res = transfer(sc, 200_000, sndbuf=256 * 1024, max_sim_s=300)
    assert res.ok


# -- determinism -------------------------------------------------------

def test_same_seed_same_trace():
    results = []
    for _ in range(2):
        sc = build_wan([GROUP_B] * 4, 10e6, seed=77)
        res = transfer(sc, 150_000, sndbuf=128 * 1024)
        results.append((res.duration_us, res.sim_events,
                        res.sender_stats.naks_rcvd,
                        res.sender_stats.probes_sent))
    assert results[0] == results[1]


def test_different_seed_different_loss_pattern():
    outcomes = set()
    for seed in (1, 2, 3):
        sc = build_wan([GROUP_C] * 4, 10e6, seed=seed)
        res = transfer(sc, 150_000, sndbuf=128 * 1024, max_sim_s=300)
        assert res.ok
        outcomes.add(res.sender_stats.naks_rcvd)
    assert len(outcomes) > 1


# -- RMC semantics ------------------------------------------------------

def test_rmc_completes_cleanly_at_default_minbuf():
    sc = build_wan([GROUP_B] * 4, 10e6, seed=8)
    res = transfer(sc, 150_000, protocol="rmc", sndbuf=128 * 1024,
                   max_sim_s=300)
    assert res.ok
    assert res.reliability_violations == 0
    # pure NAK: no updates, no probes
    assert res.sender_stats.updates_rcvd == 0
    assert res.sender_stats.probes_sent == 0


def test_rmc_hazard_with_tiny_hold_time():
    cfg = replace(HRMCConfig().as_rmc(), minbuf_rtts=1)
    sc = build_wan([GROUP_C] * 5, 10e6, seed=9)
    res = transfer(sc, 400_000, protocol="rmc", cfg=cfg,
                   sndbuf=64 * 1024, max_sim_s=120)
    # the pure-NAK design with a too-short hold drops data...
    assert res.reliability_violations > 0
    assert res.lost_bytes > 0
    assert not res.ok
    # ...and the applications were told (receiver error surfaced)
    assert any(r.errors for r in res.per_receiver)


def test_hrmc_immune_to_tiny_hold_time():
    cfg = replace(HRMCConfig(), minbuf_rtts=1)
    sc = build_wan([GROUP_C] * 5, 10e6, seed=9)
    res = transfer(sc, 400_000, protocol="hrmc", cfg=cfg,
                   sndbuf=64 * 1024, max_sim_s=600)
    assert res.ok
    assert res.lost_bytes == 0


# -- H-RMC mechanisms observable end-to-end ------------------------------

def test_updates_lift_release_information():
    sc1 = build_wan([GROUP_A] * 6, 10e6, seed=10)
    with_updates = transfer(sc1, 200_000, sndbuf=256 * 1024)
    sc2 = build_wan([GROUP_A] * 6, 10e6, seed=10)
    without = transfer(sc2, 200_000, protocol="rmc", sndbuf=256 * 1024)
    assert with_updates.release_complete_pct > without.release_complete_pct
    assert with_updates.release_complete_pct > 80.0
    assert without.release_complete_pct < 50.0


def test_probes_only_when_information_lacking():
    # low loss, updates on: probes occur but are bounded
    sc = build_wan([GROUP_A] * 4, 10e6, seed=11)
    res = transfer(sc, 200_000, sndbuf=256 * 1024)
    assert res.ok
    pkts = res.sender_stats.data_pkts_sent
    assert res.sender_stats.probes_sent < pkts


def test_dynamic_update_timer_adapts_down_in_quiet_net():
    sc = build_lan(2, 10e6, seed=12)
    cfg = HRMCConfig(expected_receivers=2)
    ssock = open_hrmc_socket(sc.sender, cfg.with_rate_cap(10e6),
                             sndbuf=64 * 1024)
    rsocks = [open_hrmc_socket(h, cfg.with_rate_cap(10e6),
                               rcvbuf=64 * 1024) for h in sc.receivers]

    def rapp(sock):
        sock.join(sc.group_addr, sc.data_port)
        while True:
            chunks = yield from sock.recv_payloads(1 << 20)
            if not chunks:
                break
        # leave the socket open: keep the update generator running

    def sapp(sock):
        sock.bind(sc.sender_port)
        sock.connect(sc.group_addr, sc.data_port)
        yield from sock.send(PatternPayload(0, 2_000_000))
        yield from sock.close()

    for rs in rsocks:
        Process(sc.sim, rapp(rs))
    Process(sc.sim, sapp(ssock))
    sc.sim.run(until=30_000_000)
    periods = [rs.transport.receiver.update.period_jiffies
               for rs in rsocks]
    assert any(p != UPDATE_INITIAL_JIFFIES for p in periods), \
        "dynamic update timers should have moved"


def test_fec_end_to_end_reduces_naks():
    base_naks = fec_naks = None
    for fec in (False, True):
        cfg = replace(HRMCConfig(), fec_enabled=fec, fec_block=8)
        sc = build_wan([GROUP_C] * 4, 10e6, seed=13)
        res = transfer(sc, 300_000, cfg=cfg, sndbuf=256 * 1024,
                       max_sim_s=300)
        assert res.ok
        if fec:
            fec_naks = res.sender_stats.naks_rcvd
            assert res.receiver_stats.fec_repairs > 0
        else:
            base_naks = res.sender_stats.naks_rcvd
    assert fec_naks < base_naks


def test_local_recovery_end_to_end():
    cfg = replace(HRMCConfig(), local_recovery=True)
    sc = build_wan([GROUP_C] * 6, 10e6, seed=14)
    res = transfer(sc, 300_000, cfg=cfg, sndbuf=256 * 1024, max_sim_s=300)
    assert res.ok
    assert res.receiver_stats.local_repairs_sent > 0
    assert res.receiver_stats.local_repairs_used > 0


def test_early_probes_cut_stalls_at_small_buffers():
    tput = {}
    for early in (False, True):
        cfg = replace(HRMCConfig(), early_probes=early)
        sc = build_lan(2, 100e6, seed=15)
        res = transfer(sc, 2_000_000, cfg=cfg, sndbuf=64 * 1024)
        assert res.ok
        tput[early] = res.throughput_bps
    assert tput[True] > tput[False]


def test_mcast_probe_reduces_probe_packets():
    counts = {}
    for threshold in (None, 4):
        cfg = replace(HRMCConfig(), mcast_probe_threshold=threshold)
        sc = build_wan([GROUP_A] * 12, 10e6, seed=16)
        res = transfer(sc, 150_000, cfg=cfg, sndbuf=256 * 1024,
                       max_sim_s=300)
        assert res.ok
        counts[threshold] = res.sender_stats.probes_sent
    assert counts[4] < counts[None]


# -- close / membership robustness --------------------------------------------

def test_close_completes_despite_lossy_feedback_path():
    lossy = GroupSpec("L", delay_us=20_000, loss_rate=0.05)
    sc = build_wan([lossy] * 4, 10e6, seed=17)
    res = transfer(sc, 150_000, sndbuf=128 * 1024, max_sim_s=600)
    assert res.ok  # includes sender close completion


def test_receiver_crash_does_not_block_group_forever():
    """Kill one receiver mid-transfer: the member-eviction backstop
    must let the remaining receivers finish."""
    sc = build_lan(3, 10e6, seed=18)
    cfg = replace(HRMCConfig(expected_receivers=3).with_rate_cap(10e6),
                  member_timeout_us=2_000_000, member_timeout_probes=5)
    ssock = open_hrmc_socket(sc.sender, cfg, sndbuf=128 * 1024)
    rsocks = [open_hrmc_socket(h, cfg, rcvbuf=128 * 1024)
              for h in sc.receivers]
    done = {}

    def rapp(i, sock, crash_after=None):
        sock.join(sc.group_addr, sc.data_port)
        got = 0
        while True:
            chunks = yield from sock.recv_payloads(1 << 20)
            if not chunks:
                break
            got += sum(c.length for c in chunks)
            if crash_after and got >= crash_after:
                sock.abort()   # vanish without LEAVE
                return
        done[i] = got
        yield from sock.close()

    def sapp(sock):
        sock.bind(sc.sender_port)
        sock.connect(sc.group_addr, sc.data_port)
        yield from sock.send(PatternPayload(0, 1_000_000))
        yield from sock.close()
        done["sender"] = sc.sim.now

    Process(sc.sim, rapp(0, rsocks[0]))
    Process(sc.sim, rapp(1, rsocks[1]))
    Process(sc.sim, rapp(2, rsocks[2], crash_after=200_000))
    Process(sc.sim, sapp(ssock))
    sc.sim.run(until=120_000_000)
    assert done.get(0) == 1_000_000
    assert done.get(1) == 1_000_000
    assert "sender" in done, "sender close must not hang on the dead member"
    assert ssock.transport.stats.member_timeouts >= 1


def test_wire_traffic_overhead_is_sane():
    """Total bytes on the wire ~= data + headers + modest feedback."""
    sc = build_lan(2, 10e6, seed=19)
    res = transfer(sc, 500_000, sndbuf=256 * 1024)
    assert res.ok
    sent = res.sender_stats.data_bytes_sent + res.sender_stats.retrans_bytes
    assert sent < 500_001 * 1.05
