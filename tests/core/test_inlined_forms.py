"""The per-packet functions against the definitions they inline.

The receiver's ``_on_data``, ``_integrate``, ``_flow_control`` and
``recvmsg`` spell their ``core.seq`` comparisons and ``classify_fill``'s
safe region inline, and so does the sender's release check,
``MemberTable.all_have`` (DESIGN.md 5g, "Call budget").  ``core/seq.py`` and
``core/window.py`` stay the definitions: each test drives the real
method from a hand-set state and requires the outcome the definitions
give, at the distances where a 32-bit comparison can go wrong -- 0, 1,
2**31 - 1, 2**31 (the antipode), 2**31 + 1 and 2**32 - 1 -- and, for
the window regions, within two bytes of both thresholds for every
buffer size the experiments use.
"""

import itertools

import pytest

from repro.core.membership import MemberTable
from repro.core.seq import (SEQ_MASK, seq_add, seq_geq, seq_gt, seq_leq,
                            seq_max, seq_sub)
from repro.core.types import URG, PacketType
from repro.core.window import Region, classify_fill, window_fill
from repro.harness.experiments import BUFFERS_BIG_K
from repro.kernel.payload import PatternPayload
from repro.kernel.skbuff import SKBuff
from repro.sim.engine import Simulator

from tests.core.conftest import FakeHost, make_receiver

SND = "10.0.0.1"
EDGES = (0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1)
ORIGINS = (0, 1, 2**31 - 1, 2**31, 2**32 - 1)


def receiver(rcvbuf=64 * 1024):
    sim = Simulator()
    host = FakeHost(sim)
    r = make_receiver(sim, host, rcvbuf=rcvbuf)
    r.sender_addr, r.sender_port, r.join_state = SND, 5000, "joined"
    return r, host


def segment(seq, length, rate_adv=0):
    return SKBuff(sport=5000, dport=6000, seq=seq, ptype=PacketType.DATA,
                  length=length, rate_adv=rate_adv, tries=1)


# -- _flow_control's safe region is classify_fill's ----------------------

def fills_near_thresholds(size, cfg):
    fills = {0, size, size + 1}
    for threshold in (cfg.warn_fill, cfg.crit_fill):
        fills.update(int(threshold * size) + d for d in range(-2, 3))
    return sorted(f for f in fills if f >= 0)


@pytest.mark.parametrize("size", [k * 1024 for k in BUFFERS_BIG_K])
@pytest.mark.parametrize("origin", [1, 2**32 - 5_000])
def test_flow_control_regions_are_classify_fill(size, origin):
    cfg = receiver()[0].cfg
    for fill in fills_near_thresholds(size, cfg):
        r, host = receiver(rcvbuf=size)
        r.rcv_wnd = origin
        r.rcv_nxt = r.highest_seen = seq_add(origin, fill)
        # an advertised rate no window survives: WARNING always asks
        r._flow_control(segment(r.rcv_nxt, 0, rate_adv=10**15))
        region = classify_fill(fill, size, cfg.warn_fill, cfg.crit_fill)
        requests = host.sent_of_type(PacketType.CONTROL)
        if region is Region.SAFE:
            assert not host.sent, (size, fill)
        else:
            assert len(requests) == 1, (size, fill, region)
            urgent = bool(requests[0][0].flags & URG)
            assert urgent == (region is Region.CRITICAL), (size, fill)


@pytest.mark.parametrize("origin", ORIGINS)
def test_flow_control_measures_fill_like_seq_max_and_window_fill(origin):
    """``high`` and ``fill`` at every edge distance between ``rcv_nxt``,
    ``highest_seen`` and the window origin, seen through the region a
    10-byte window puts them in."""
    cfg = receiver()[0].cfg
    for nxt_lead, seen_lead in itertools.product(EDGES + (4, 6, 9), EDGES):
        r, host = receiver(rcvbuf=10)
        r.rcv_wnd = origin
        r.rcv_nxt = seq_add(origin, nxt_lead)
        r.highest_seen = seq_add(r.rcv_nxt, seen_lead)
        fill = window_fill(origin, seq_max(r.rcv_nxt, r.highest_seen))
        region = classify_fill(fill, 10, cfg.warn_fill, cfg.crit_fill)
        r._flow_control(segment(r.rcv_nxt, 0, rate_adv=10**15))
        requests = host.sent_of_type(PacketType.CONTROL)
        assert len(requests) == (region is not Region.SAFE), \
            (origin, nxt_lead, seen_lead)
        if requests:
            urgent = bool(requests[0][0].flags & URG)
            assert urgent == (region is Region.CRITICAL)


# -- _on_data / _integrate against seq_leq, seq_gt, seq_max, seq_sub -----

def expected_on_data(r, seq, length):
    """The decision tree of ``_on_data`` written with the definitions."""
    end = seq_add(seq, length)
    if seq_leq(end, r.rcv_nxt):
        return "duplicate"
    if seq_gt(end, seq_add(r.rcv_wnd, r.rcv_wnd_size + 1)):
        return "out of window"
    if seq_gt(seq, r.rcv_nxt):
        return "parked"
    return "integrated"


@pytest.mark.parametrize("origin", ORIGINS)
def test_on_data_branches_match_the_seq_definitions(origin):
    seen = set()
    for ahead, length, wnd_size in itertools.product(
            EDGES, (1, 2, 2**31 - 1, 2**31, 2**31 + 1), (65536, 2**31)):
        r, host = receiver()
        r.rcv_wnd = r.rcv_nxt = r.highest_seen = origin
        r.rcv_wnd_size = wnd_size
        seq = (origin + ahead) & SEQ_MASK
        end = seq_add(seq, length)
        want = expected_on_data(r, seq, length)
        high = seq_max(r.highest_seen, end)
        r._on_data(segment(seq, length), SND)
        assert r.highest_seen == high
        got = ("duplicate" if r.stats.dup_pkts_rcvd else
               "out of window" if r.stats.out_of_window_drops else
               "parked" if r.stats.out_of_order_pkts else "integrated")
        assert got == want, (origin, ahead, length, wnd_size)
        if want == "integrated":
            out = r.sock.receive_queue.peek_tail()
            assert r.rcv_nxt == end
            assert (out.seq, out.length) == \
                (origin, length - seq_sub(origin, seq))
        else:
            assert r.rcv_nxt == origin and not r.sock.receive_queue
        seen.add(want)
    assert seen == {"duplicate", "out of window", "parked", "integrated"}


@pytest.mark.parametrize("origin", ORIGINS)
def test_on_data_window_edge_is_one_byte_past_the_window(origin):
    """Region R4 starts at ``rcv_wnd + rcv_wnd_size + 1``, exactly."""
    for past in (-1, 0, 1, 2):
        r, _ = receiver(rcvbuf=1000)
        r.rcv_wnd = r.rcv_nxt = r.highest_seen = origin
        seq = seq_add(origin, 1000 + 1 + past - 100)
        want = expected_on_data(r, seq, 100)
        assert want == ("out of window" if past > 0 else "parked")
        r._on_data(segment(seq, 100), SND)
        assert r.stats.out_of_window_drops == (want == "out of window")
        assert r.stats.out_of_order_pkts == (want == "parked")


def test_integrate_trims_the_overlap_across_the_wrap():
    r, _ = receiver()
    r.rcv_wnd = r.rcv_nxt = r.highest_seen = 3
    r._on_data(segment(2**32 - 4, 10), SND)       # bytes -4..5, 3 are new
    out = r.sock.receive_queue.peek()
    assert (out.seq, out.length, r.rcv_nxt) == (3, 3, 6)


# -- recvmsg's window origin is seq_max(rcv_wnd, bytes read) -------------

@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("partial", [False, True])
def test_recvmsg_moves_the_window_origin_like_seq_max(origin, partial):
    take = 40 if partial else 100
    read_to = seq_add(origin, take)
    for lead in EDGES:
        r, _ = receiver()
        r.rcv_wnd = seq_add(read_to, lead)        # e.g. after a NAK_ERR
        r.sock.receive_queue.enqueue(segment(origin, 100))
        want = seq_max(r.rcv_wnd, read_to)
        r.recvmsg(take)
        assert r.rcv_wnd == want, (origin, lead, partial)
        assert len(r.sock.receive_queue) == (1 if partial else 0)


def test_recvmsg_reads_every_queued_skb_and_stops_after_the_last():
    """It ends its loop on the queue's byte count instead of a second
    dequeue; across the wrap, every queued skb is still read."""
    origin = 2**32 - 150
    r, _ = receiver()
    r.rcv_wnd = r.rcv_nxt = r.highest_seen = origin
    for i in range(3):
        skb = segment(seq_add(origin, 100 * i), 100)
        skb.payload = PatternPayload(100 * i, 100)
        r.sock.receive_queue.enqueue(skb)
    got = r.recvmsg(10**6)
    assert [(p.offset, p.length) for p in got] == \
        [(0, 100), (100, 100), (200, 100)]
    assert not r.sock.receive_queue and r.sock.receive_queue.bytes == 0
    assert r.rcv_wnd == seq_add(origin, 300)
    assert r.recvmsg(10**6) == []


# -- the release check is seq_geq over every member ----------------------

@pytest.mark.parametrize("origin", ORIGINS)
def test_all_have_is_seq_geq_for_every_member(origin):
    for lags in itertools.product(EDGES, repeat=2):
        t = MemberTable()
        for i, lag in enumerate(lags):
            t.add(f"10.0.0.{i + 2}", (origin - lag) & SEQ_MASK, 0)
        want = all(seq_geq(m.next_expected, origin) for m in t)
        assert t.all_have(origin) == want, (origin, lags)
    assert MemberTable().all_have(origin)
