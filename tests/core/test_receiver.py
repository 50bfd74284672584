"""Unit tests for the H-RMC receiver state machine."""

from dataclasses import replace

from repro.core.config import HRMCConfig
from repro.core.types import FIN, URG, PacketType
from repro.kernel.payload import BytesPayload, PatternPayload
from repro.kernel.skbuff import SKBuff
from repro.obs.causal import LineageRecorder
from repro.sim.timer import JIFFY_US

from tests.core.conftest import make_receiver

SND = "10.0.0.1"


def data(seq, payload: bytes, *, flags=0, rate_adv=100_000, tries=1):
    return SKBuff(sport=5000, dport=6000, seq=seq, ptype=PacketType.DATA,
                  length=len(payload), rate_adv=rate_adv, flags=flags,
                  tries=tries, payload=BytesPayload(payload))


def fin(seq):
    return SKBuff(sport=5000, dport=6000, seq=seq, ptype=PacketType.DATA,
                  length=1, flags=FIN, tries=1)


def control(ptype, seq):
    return SKBuff(sport=5000, dport=6000, seq=seq, tries=1, ptype=ptype)


def drain(r, max_bytes=1 << 20) -> bytes:
    return b"".join(p.tobytes() for p in r.recvmsg(max_bytes))


def test_in_order_delivery(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"hello "), SND)
    r.segment_received(data(7, b"world"), SND)
    assert r.rcv_nxt == 12
    assert drain(r) == b"hello world"
    assert r.rcv_wnd == 12


def test_join_sent_on_first_data(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"x"), SND)
    joins = fake_host.sent_of_type(PacketType.JOIN)
    assert len(joins) == 1
    skb, dst = joins[0]
    assert dst == SND
    assert skb.rate_adv == 1        # echoes the triggering seq
    assert r.sender_addr == SND
    assert r.join_state == "sent"


def test_join_response_completes_handshake_with_rtt(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"x"), SND)
    sim.run(until=4_000)
    r.segment_received(
        SKBuff(sport=5000, dport=6000, seq=2, tries=1,
               ptype=PacketType.JOIN_RESPONSE), SND)
    assert r.join_state == "joined"
    assert r.rtt.samples == 1
    assert abs(r.rtt.rtt_us - 4_000) < 100


def test_join_retries_until_response(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"x"), SND)
    sim.run(until=3 * r.cfg.join_retry_us + 1000)
    assert len(fake_host.sent_of_type(PacketType.JOIN)) >= 3


def test_gap_generates_immediate_nak(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a" * 100), SND)
    r.segment_received(data(301, b"c" * 100), SND)  # gap [101, 301)
    naks = fake_host.sent_of_type(PacketType.NAK)
    assert len(naks) == 1
    skb, dst = naks[0]
    assert dst == SND
    assert skb.seq == 101
    assert skb.length == 200
    assert skb.rate_adv == 101          # rcv_nxt rides in rate_adv
    assert r.stats.out_of_order_pkts == 1


def pending(r):
    return [(rng.start, rng.end) for rng in r.naks]


def test_second_out_of_order_arrival_claims_nothing_parked(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a" * 100), SND)
    r.segment_received(data(301, b"c" * 100), SND)  # gap [101, 301)
    r.segment_received(data(401, b"d" * 100), SND)  # contiguous: no new gap
    r.segment_received(data(601, b"f" * 100), SND)  # gap [501, 601)
    naks = fake_host.sent_of_type(PacketType.NAK)
    assert [(skb.seq, skb.length) for skb, _ in naks] == \
        [(101, 200), (501, 100)]
    assert pending(r) == [(101, 301), (501, 601)]


def test_repair_landing_mid_hole_splits_the_pending_range(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a" * 100), SND)
    r.segment_received(data(501, b"e" * 100), SND)  # gap [101, 501)
    fake_host.clear()
    r.segment_received(data(201, b"b" * 100, tries=2), SND)
    assert pending(r) == [(101, 201), (301, 501)]
    # both halves were asked for already: nothing goes on the wire, and
    # the suppression clock keeps running from that first NAK
    assert fake_host.sent_of_type(PacketType.NAK) == []
    assert [rng.tries for rng in r.naks] == [1, 1]


def test_keepalive_past_parked_data_claims_only_the_tail(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a" * 100), SND)
    r.segment_received(data(301, b"c" * 100), SND)  # gap [101, 301)
    fake_host.clear()
    r.segment_received(control(PacketType.KEEPALIVE, 601), SND)
    naks = fake_host.sent_of_type(PacketType.NAK)
    assert [(skb.seq, skb.length) for skb, _ in naks] == [(401, 200)]
    assert pending(r) == [(101, 301), (401, 601)]


def test_probe_past_parked_data_claims_only_the_tail(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a" * 100), SND)
    r.segment_received(data(301, b"c" * 100), SND)  # gap [101, 301)
    fake_host.clear()
    r.segment_received(control(PacketType.PROBE, 601), SND)
    # [101, 301) was NAKed this instant and is held by suppression
    naks = fake_host.sent_of_type(PacketType.NAK)
    assert [(skb.seq, skb.length) for skb, _ in naks] == [(401, 200)]
    assert pending(r) == [(101, 301), (401, 601)]


def test_gap_lineage_node_only_when_a_range_is_claimed(sim, fake_host):
    lineage = LineageRecorder(sim)
    sim.tap = lambda *fact: lineage.on_packet(sim.now, *fact)
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a" * 100), SND)
    r.segment_received(data(301, b"c" * 100), SND)  # gap [101, 301)
    r.segment_received(data(401, b"d" * 100), SND)  # reveals nothing new
    r.segment_received(control(PacketType.PROBE, 501), SND)  # nor this
    r.segment_received(control(PacketType.PROBE, 601), SND)  # [501, 601)
    gaps = [(n.seq, n.end) for n in lineage.nodes.values()
            if n.kind == "gap"]
    assert gaps == [(101, 301), (501, 601)]


def test_gap_fill_delivers_in_order(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"aa"), SND)
    r.segment_received(data(5, b"cc"), SND)
    assert drain(r) == b"aa"
    r.segment_received(data(3, b"bb"), SND)
    assert r.rcv_nxt == 7
    assert drain(r) == b"bbcc"


def test_nak_manager_resends_under_suppression(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a" * 10), SND)
    r.segment_received(data(111, b"c" * 10), SND)
    sim.run(until=2_000_000)
    naks = fake_host.sent_of_type(PacketType.NAK)
    assert 2 <= len(naks) <= 12     # resent, but suppressed/backed off


def test_duplicate_data_counted_not_delivered(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abc"), SND)
    r.segment_received(data(1, b"abc"), SND)
    assert r.stats.dup_pkts_rcvd == 1
    assert drain(r) == b"abc"


def test_partial_overlap_trimmed(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abcd"), SND)
    r.segment_received(data(3, b"cdEF"), SND)  # overlaps [3,5)
    assert drain(r) == b"abcdEF"


def test_fin_sets_eof_after_consumption(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"last"), SND)
    r.segment_received(fin(5), SND)
    assert r.eof_seq == 5
    assert not r.at_eof()            # data still unread
    assert drain(r) == b"last"
    assert r.at_eof()


def test_fin_out_of_order_recovered(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"ab"), SND)
    r.segment_received(fin(5), SND)          # gap [3,5)
    assert r.eof_seq is None                 # FIN parked out of order
    r.segment_received(data(3, b"cd"), SND)
    assert r.eof_seq == 5
    assert drain(r) == b"abcd"
    assert r.at_eof()


def test_probe_answered_with_update_when_complete(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abc"), SND)
    fake_host.clear()
    probe = SKBuff(sport=5000, dport=6000, seq=4, tries=1,
                   ptype=PacketType.PROBE)
    r.segment_received(probe, SND)
    ups = fake_host.sent_of_type(PacketType.UPDATE)
    assert len(ups) == 1
    assert ups[0][0].seq == 4
    assert r.update.probe_seen is True


def test_probe_answered_with_nak_when_lacking(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abc"), SND)
    fake_host.clear()
    probe = SKBuff(sport=5000, dport=6000, seq=500, tries=1,
                   ptype=PacketType.PROBE)
    r.segment_received(probe, SND)
    naks = fake_host.sent_of_type(PacketType.NAK)
    assert len(naks) == 1
    assert naks[0][0].seq == 4
    assert fake_host.sent_of_type(PacketType.UPDATE) == []


def test_keepalive_tail_loss_detection(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abc"), SND)
    fake_host.clear()
    ka = SKBuff(sport=5000, dport=6000, seq=1000, tries=1,
                ptype=PacketType.KEEPALIVE)
    r.segment_received(ka, SND)
    naks = fake_host.sent_of_type(PacketType.NAK)
    assert len(naks) == 1
    assert naks[0][0].seq == 4
    assert r.stats.keepalives_rcvd == 1


def test_update_generator_periodic(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abc"), SND)
    # complete the join handshake so join retries stop counting as
    # reverse traffic (which would suppress updates)
    r.segment_received(SKBuff(sport=5000, dport=6000, seq=4, tries=1,
                              ptype=PacketType.JOIN_RESPONSE), SND)
    fake_host.clear()
    sim.run(until=4 * r.cfg.update_initial_jiffies * JIFFY_US)
    ups = fake_host.sent_of_type(PacketType.UPDATE)
    assert 2 <= len(ups) <= 5
    assert all(skb.seq == r.rcv_nxt for skb, _ in ups)


def test_update_suppressed_by_other_feedback(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"a"), SND)   # JOIN counts as feedback
    fake_host.clear()
    # keep generating feedback every period: no UPDATEs expected
    period = r.cfg.update_initial_jiffies * JIFFY_US

    def spam_nak():
        r._feedback_since_update = True

    for k in range(1, 6):
        sim.call_at(k * period - 1000, spam_nak)
    sim.run(until=5 * period)
    assert fake_host.sent_of_type(PacketType.UPDATE) == []


def test_dynamic_update_period_shrinks_on_probes(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abc"), SND)
    start = r.update.period_jiffies
    probe = SKBuff(sport=5000, dport=6000, seq=1, tries=1,
                   ptype=PacketType.PROBE)
    for k in range(1, 6):
        sim.call_at(k * 400_000, r.segment_received, probe, SND)
    sim.run(until=3_000_000)
    assert r.update.period_jiffies < start


def test_out_of_window_data_dropped_with_urgent(sim, fake_host):
    r = make_receiver(sim, fake_host, rcvbuf=4096)
    r.segment_received(data(1, b"a" * 100), SND)
    fake_host.clear()
    r.segment_received(data(50_000, b"b" * 100), SND)  # far past window
    assert r.stats.out_of_window_drops == 1
    urg = [skb for skb, _ in fake_host.sent_of_type(PacketType.CONTROL)
           if skb.flags & URG]
    assert len(urg) == 1


def test_warning_rate_request_math(sim, fake_host):
    cfg = replace(HRMCConfig(), warn_fill=0.5, crit_fill=0.95)
    r = make_receiver(sim, fake_host, cfg=cfg, rcvbuf=2000)
    # fill past the warning threshold without reading
    r.segment_received(data(1, b"x" * 800, rate_adv=10_000_000), SND)
    fake_host.clear()
    r.segment_received(data(801, b"y" * 400, rate_adv=10_000_000), SND)
    ctrls = fake_host.sent_of_type(PacketType.CONTROL)
    assert ctrls, "warning-region arrival at a huge advertised rate " \
                  "must request a lower rate"
    skb = ctrls[0][0]
    assert not skb.flags & URG
    assert 0 <= skb.rate_adv < 10_000_000  # suggests something lower


def test_safe_region_no_rate_request(sim, fake_host):
    r = make_receiver(sim, fake_host, rcvbuf=1 << 20)
    r.segment_received(data(1, b"x" * 1000, rate_adv=1_000), SND)
    assert fake_host.sent_of_type(PacketType.CONTROL) == []


def test_nak_err_skips_hole_and_records_loss(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"ab"), SND)
    r.segment_received(data(103, b"cd"), SND)  # gap [3,103)
    err = SKBuff(sport=5000, dport=6000, seq=103, tries=1,
                 ptype=PacketType.NAK_ERR)
    r.segment_received(err, SND)
    assert r.lost_bytes == 100
    assert r.error is not None
    assert r.rcv_nxt == 105          # resumed past the hole
    assert len(r.naks) == 0


def test_recvmsg_partial_read_splits_head(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"abcdefgh"), SND)
    first = b"".join(p.tobytes() for p in r.recvmsg(3))
    rest = b"".join(p.tobytes() for p in r.recvmsg(100))
    assert first == b"abc"
    assert rest == b"defgh"
    assert r.rcv_wnd == 9


def test_fec_parity_repairs_single_gap(sim, fake_host):
    cfg = replace(HRMCConfig(), fec_enabled=True, fec_block=4)
    r = make_receiver(sim, fake_host, cfg=cfg, rcvbuf=1 << 20)
    mss = cfg.mss
    # stream is the canonical pattern (iss=1 => offset = seq-1)
    def pat(seq, n):
        s = SKBuff(sport=5000, dport=6000, seq=seq, ptype=PacketType.DATA,
                   length=n, tries=1,
                   payload=PatternPayload(seq - 1, n))
        return s
    r.segment_received(pat(1, mss), SND)
    # drop the 2nd packet; deliver 3rd & 4th
    r.segment_received(pat(1 + 2 * mss, mss), SND)
    r.segment_received(pat(1 + 3 * mss, mss), SND)
    parity = SKBuff(sport=5000, dport=6000, seq=1, ptype=PacketType.DATA,
                    length=0, flags=0x8000, rate_adv=4 * mss, tries=1)
    r.segment_received(parity, SND)
    assert r.stats.fec_repairs == 1
    assert r.rcv_nxt == 1 + 4 * mss
    got = drain(r)
    assert got == PatternPayload(0, 4 * mss).tobytes()


def test_leave_sent_on_close(sim, fake_host):
    r = make_receiver(sim, fake_host)
    r.segment_received(data(1, b"x"), SND)
    r.send_leave()
    leaves = fake_host.sent_of_type(PacketType.LEAVE)
    assert len(leaves) == 1
    assert leaves[0][1] == SND
