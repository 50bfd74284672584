"""Unit tests for the H-RMC sender state machine (driven directly via a
fake host)."""

from dataclasses import replace

from repro.core.config import KEEPALIVE_MAX_US, HRMCConfig
from repro.core.rate import RatePhase
from repro.core.types import FIN, URG, PacketType
from repro.kernel.payload import BytesPayload, PatternPayload
from repro.kernel.skbuff import SKBuff
from repro.sim.timer import JIFFY_US

from tests.core.conftest import make_sender

RCV = "10.0.0.9"


def feedback(ptype, *, seq=1, length=0, rate_adv=0, flags=0):
    return SKBuff(sport=6000, dport=5000, seq=seq, ptype=ptype,
                  length=length, rate_adv=rate_adv, flags=flags, tries=1)


def join_member(sender, addr=RCV, seq=1):
    """Deliver a JOIN so the sender tracks one member."""
    sender.segment_received(feedback(PacketType.JOIN, seq=seq), addr)


def test_sendmsg_fragments_at_mss(sim, fake_host):
    s = make_sender(sim, fake_host)
    n = s.cfg.mss * 2 + 100
    consumed = s.sendmsg_some(PatternPayload(0, n))
    assert consumed == n
    lens = [skb.length for skb in s.sock.write_queue]
    assert lens == [s.cfg.mss, s.cfg.mss, 100]
    assert s.snd_nxt == s.cfg.iss + n


def test_sendmsg_blocks_at_sndbuf(sim, fake_host):
    s = make_sender(sim, fake_host, sndbuf=8 * 1024)
    consumed = s.sendmsg_some(PatternPayload(0, 1 << 20))
    assert 0 < consumed < (1 << 20)
    assert s.sock.wmem_free() >= 0
    # a second call makes no progress until space frees
    assert s.sendmsg_some(PatternPayload(consumed, 1024)) == 0


def test_transmit_tick_sends_data(sim, fake_host):
    s = make_sender(sim, fake_host)
    s.sendmsg_some(BytesPayload(b"x" * 3000))
    sim.run(until=5 * JIFFY_US)
    data = fake_host.sent_of_type(PacketType.DATA)
    assert len(data) >= 1
    assert data[0][1] == "224.1.0.1"        # multicast destination
    assert data[0][0].rate_adv > 0          # rate advertised


def test_rate_budget_paces_transmission(sim, fake_host):
    cfg = replace(HRMCConfig(), min_rate_bps=8 * 1460 * 100,  # 1 pkt/jiffy
                  max_rate_bps=8 * 1460 * 100)
    s = make_sender(sim, fake_host, cfg=cfg, sndbuf=1 << 20)
    s.sendmsg_some(PatternPayload(0, 100 * 1460))
    sim.run(until=10 * JIFFY_US)
    sent = len(fake_host.sent_of_type(PacketType.DATA))
    assert sent <= 13  # ~1/jiffy plus slack for the initial burst cap


def test_fin_is_one_phantom_byte(sim, fake_host):
    s = make_sender(sim, fake_host)
    s.sendmsg_some(BytesPayload(b"abc"))
    s.queue_fin()
    assert s.fin_seq == s.cfg.iss + 3
    assert s.snd_nxt == s.cfg.iss + 4
    tail = s.sock.write_queue.peek_tail()
    assert tail.flags & FIN
    assert tail.length == 1 and tail.payload is None


def test_release_waits_minbuf_rtts(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s)
    s.sendmsg_some(BytesPayload(b"y" * 100))
    s.queue_fin()   # lazy release: closing activates window release
    sim.run(until=2 * JIFFY_US)
    skb = s.sock.write_queue.peek()
    assert skb.tries == 1
    # member has everything, but MINBUF keeps the data buffered
    # (the queue holds the data skb plus the FIN marker)
    s.segment_received(feedback(PacketType.UPDATE, seq=10_000), RCV)
    assert len(s.sock.write_queue) == 2
    hold = s.cfg.minbuf_rtts * s.members.rtt_us
    sim.run(until=skb.last_sent_us + hold + 2 * JIFFY_US)
    assert len(s.sock.write_queue) == 0
    assert s.snd_wnd == s.snd_nxt  # slid past data and FIN


def test_release_blocked_without_member_info_probes(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s, seq=1)
    s.sendmsg_some(BytesPayload(b"z" * 100))
    s.queue_fin()
    sim.run(until=JIFFY_US * 3)
    hold = s.cfg.minbuf_rtts * s.members.rtt_us
    sim.run(until=sim.now + hold + 5 * JIFFY_US)
    # member's next_expected (1) is behind: data must still be buffered
    # (data skb + FIN marker)
    assert len(s.sock.write_queue) == 2
    probes = fake_host.sent_of_type(PacketType.PROBE)
    assert probes, "sender must probe the lacking member"
    assert probes[0][1] == RCV  # unicast to the member
    assert s.release.checks == 1
    assert s.release.complete == 0


def test_release_after_probe_answer(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s, seq=1)
    s.sendmsg_some(BytesPayload(b"z" * 100))
    s.queue_fin()
    hold = s.cfg.minbuf_rtts * s.members.rtt_us
    sim.run(until=hold + 5 * JIFFY_US)
    assert len(s.sock.write_queue) >= 1
    s.segment_received(feedback(PacketType.UPDATE, seq=5000), RCV)
    sim.run(until=sim.now + hold + 5 * JIFFY_US)
    assert len(s.sock.write_queue) == 0


def test_rmc_mode_releases_without_info(sim, fake_host):
    cfg = HRMCConfig().as_rmc()
    s = make_sender(sim, fake_host, cfg=cfg)
    join_member(s, seq=1)  # tracked for metrics only
    s.sendmsg_some(BytesPayload(b"z" * 100))
    s.queue_fin()
    hold = cfg.minbuf_rtts * s.members.rtt_us
    sim.run(until=hold + 5 * JIFFY_US)
    assert len(s.sock.write_queue) == 0          # released anyway
    assert fake_host.sent_of_type(PacketType.PROBE) == []
    assert s.release.checks >= 1 and s.release.complete == 0


def test_nak_triggers_retransmission_and_rate_cut(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s)
    s.sendmsg_some(PatternPayload(0, 3 * 1460))
    sim.run(until=3 * JIFFY_US)
    fake_host.clear()
    before = s.rate.rate
    s.segment_received(
        feedback(PacketType.NAK, seq=1, length=1460, rate_adv=1), RCV)
    sim.run(until=sim.now + 3 * JIFFY_US)
    retrans = [skb for skb, _ in fake_host.sent_of_type(PacketType.DATA)
               if skb.tries > 1]
    assert retrans and retrans[0].seq == 1
    # one cut: the rate halved into linear growth
    assert s.rate.ssthresh == max(s.rate.min_rate, before / 2)
    assert s.rate.phase is RatePhase.CONG_AVOID
    assert s.stats.naks_rcvd == 1


def test_nak_updates_membership_from_rate_adv(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s)
    s.sendmsg_some(PatternPayload(0, 10 * 1460))
    sim.run(until=3 * JIFFY_US)
    s.segment_received(
        feedback(PacketType.NAK, seq=2921, length=1460, rate_adv=2921), RCV)
    assert s.members.get(RCV).next_expected == 2921


def test_nak_below_window_sends_nak_err(sim, fake_host):
    cfg = replace(HRMCConfig().as_rmc(), minbuf_rtts=1)
    s = make_sender(sim, fake_host, cfg=cfg)
    s.sendmsg_some(BytesPayload(b"q" * 100))
    s.queue_fin()
    sim.run(until=1_000_000)  # RMC releases after the short hold
    assert len(s.sock.write_queue) == 0
    fake_host.clear()
    s.segment_received(feedback(PacketType.NAK, seq=1, length=100,
                                rate_adv=1), RCV)
    errs = fake_host.sent_of_type(PacketType.NAK_ERR)
    assert len(errs) == 1
    assert errs[0][1] == RCV
    assert errs[0][0].seq == s.snd_wnd
    assert s.stats.reliability_violations == 1


def test_urgent_control_stops_transmission(sim, fake_host):
    s = make_sender(sim, fake_host, sndbuf=1 << 20)
    join_member(s)
    s.sendmsg_some(PatternPayload(0, 200 * 1460))
    sim.run(until=5 * JIFFY_US)
    s.segment_received(feedback(PacketType.CONTROL, seq=1, flags=URG), RCV)
    assert s.rate.is_stopped(sim.now)
    fake_host.clear()
    sim.run(until=sim.now + JIFFY_US)  # within the stop window
    assert fake_host.sent_of_type(PacketType.DATA) == []
    assert s.stats.urgent_requests_rcvd == 1


def test_warning_control_halves_and_caps(sim, fake_host):
    s = make_sender(sim, fake_host, sndbuf=1 << 20)
    join_member(s)
    s.sendmsg_some(PatternPayload(0, 200 * 1460))
    sim.run(until=20 * JIFFY_US)
    before = s.rate.rate
    s.segment_received(
        feedback(PacketType.CONTROL, seq=1, rate_adv=200_000), RCV)
    # capped at the suggestion (or the protocol's minimum rate)
    assert s.rate.rate <= max(200_000, s.rate.min_rate) + 1
    # after one cut: the rate halved into linear growth
    assert s.rate.ssthresh == max(s.rate.min_rate, before / 2)
    assert s.rate.phase is RatePhase.CONG_AVOID
    assert s.stats.rate_requests_rcvd == 1


def test_join_and_leave_maintain_membership(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s, "10.0.0.7")
    join_member(s, "10.0.0.8")
    assert len(s.members) == 2
    assert fake_host.sent_of_type(PacketType.JOIN_RESPONSE)
    s.segment_received(feedback(PacketType.LEAVE, seq=1), "10.0.0.7")
    assert len(s.members) == 1
    assert fake_host.sent_of_type(PacketType.LEAVE_RESPONSE)


def test_duplicate_join_keeps_one_member(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s)
    join_member(s)
    assert len(s.members) == 1
    assert len(fake_host.sent_of_type(PacketType.JOIN_RESPONSE)) == 2


def test_keepalive_when_idle_with_backoff(sim, fake_host):
    s = make_sender(sim, fake_host)
    sim.run(until=5_000_000)  # 5 s idle
    kas = fake_host.sent_of_type(PacketType.KEEPALIVE)
    assert len(kas) >= 2
    assert all(skb.seq == s.snd_nxt for skb, _ in kas)
    times = [t for skb, dst, t in fake_host.sent
             if skb.ptype == PacketType.KEEPALIVE]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:]))  # backing off
    assert max(gaps) <= KEEPALIVE_MAX_US + JIFFY_US


def test_probe_backoff_limits_probe_rate(sim, fake_host):
    s = make_sender(sim, fake_host)
    join_member(s, seq=1)
    s.sendmsg_some(BytesPayload(b"z" * 100))
    s.queue_fin()
    sim.run(until=3_000_000)
    probes = fake_host.sent_of_type(PacketType.PROBE)
    # backoff: far fewer probes than elapsed jiffies
    assert 0 < len(probes) < 40


def test_member_eviction_after_probe_timeout(sim, fake_host):
    cfg = replace(HRMCConfig(), member_timeout_probes=3,
                  member_timeout_us=500_000)
    s = make_sender(sim, fake_host, cfg=cfg)
    join_member(s, seq=1)
    s.sendmsg_some(BytesPayload(b"z" * 100))
    s.queue_fin()
    sim.run(until=20_000_000)
    assert len(s.members) == 0
    assert s.stats.member_timeouts == 1
    assert len(s.sock.write_queue) == 0  # window freed after eviction


def test_close_drains_and_stops_timers(sim, fake_host):
    s = make_sender(sim, fake_host)
    s.sendmsg_some(BytesPayload(b"end"))
    s.queue_fin()
    sim.run(until=10_000_000)
    assert s.drained
    assert s.finished
    assert not s.transmit_timer.pending
    assert not s.ka_timer.pending


def test_fec_parity_emitted_every_block(sim, fake_host):
    cfg = replace(HRMCConfig(), fec_enabled=True, fec_block=4)
    s = make_sender(sim, fake_host, cfg=cfg, sndbuf=1 << 20)
    s.sendmsg_some(PatternPayload(0, 12 * 1460))
    sim.run(until=50 * JIFFY_US)
    parity = [skb for skb, _ in fake_host.sent_of_type(PacketType.DATA)
              if skb.flags & 0x8000]
    assert len(parity) == 3
    assert all(skb.rate_adv == 4 * 1460 for skb in parity)
    assert s.stats.fec_pkts_sent == 3


def test_expected_receivers_gate_release(sim, fake_host):
    cfg = replace(HRMCConfig(), expected_receivers=2)
    s = make_sender(sim, fake_host, cfg=cfg)
    join_member(s, "10.0.0.7", seq=10_000)
    s.sendmsg_some(BytesPayload(b"k" * 100))
    s.queue_fin()
    sim.run(until=3_000_000)
    assert len(s.sock.write_queue) >= 1  # quorum not met
    join_member(s, "10.0.0.8", seq=10_000)
    sim.run(until=sim.now + 5 * JIFFY_US)
    assert len(s.sock.write_queue) == 0
