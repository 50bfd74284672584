"""The sender serves a NAK from the skb holding its start.

``_queue_retransmission`` bisects the write queue for the first skb a
NAK reaches instead of walking up to it from the head.  ``head_walk``
below is the walk it replaced, kept as the reference: for queues that
mix full segments, the partial tail of a 64K write and a 1-byte FIN,
numbered across the 2**32 wrap, and NAK ranges before, inside and past
the queue, both must queue the same skbs in the same order and deflect
the same requests.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.config import INITIAL_RTT_US, MIN_RTT_US, HRMCConfig
from repro.core.seq import seq_add, seq_geq, seq_leq, seq_min
from repro.core.types import FIN, PacketType
from repro.kernel.skbuff import SKBuff
from repro.sim.engine import Simulator
from repro.sim.timer import JIFFY_US

from tests.core.conftest import FakeHost, make_sender

CFG = HRMCConfig()
MSS = CFG.mss
TAIL = 65536 % MSS                  # the last segment of a 64K write
PACE = max(INITIAL_RTT_US, JIFFY_US)
NOW = 10_000_000


def head_walk(sender, start, end):
    """``_queue_retransmission`` as it was: from the head of the queue."""
    end = seq_min(end, sender.snd_nxt)
    now = sender.sim.now
    pace = max(sender.members.rtt_us, JIFFY_US)
    queued = False
    for skb in sender.sock.write_queue:
        if seq_geq(skb.seq, end):
            break
        if seq_leq(skb.end_seq, start):
            continue
        if skb.tries == 0:
            break
        if skb.tries > 1 and now - skb.last_sent_us < pace:
            sender.repairs_deflected += 1
            continue
        if not skb.retrans_pending:
            skb.retrans_pending = True
            sender._retrans.append(skb)
            queued = True
    if queued and not sender.retrans_timer.pending:
        sender.retrans_timer.mod_after(MIN_RTT_US)


@st.composite
def write_queues(draw):
    """(length, tries, age, retrans_pending) per skb, head first: the
    skbs sent so far, then the ones still waiting."""
    lengths = draw(st.lists(st.sampled_from([MSS, TAIL]), min_size=1,
                            max_size=30))
    if draw(st.booleans()):
        lengths.append(1)                                   # FIN
    sent = draw(st.integers(0, len(lengths)))
    ages = st.one_of(st.integers(0, 3 * PACE),
                     st.sampled_from([PACE - 1, PACE]))
    return [(length, draw(st.integers(1, 3)), draw(ages), draw(st.booleans()))
            if i < sent else (length, 0, 0, False)
            for i, length in enumerate(lengths)]


def sender_with(iss, queue):
    sim = Simulator()
    sender = make_sender(sim, FakeHost(sim), replace(CFG, iss=iss),
                         sndbuf=1 << 24)
    sender.stop()
    sim.run(until=NOW)
    seq = iss
    for length, tries, age, pending in queue:
        skb = SKBuff(sport=5000, dport=6000, seq=seq, ptype=PacketType.DATA,
                     length=length, flags=FIN if length == 1 else 0)
        skb.tries, skb.retrans_pending = tries, pending
        skb.last_sent_us = NOW - age if tries else -1
        sender.sock.write_queue.enqueue(skb)
        seq = seq_add(seq, length)
    sender.snd_nxt = seq
    return sender


def outcome(sender):
    return ([skb.seq for skb in sender._retrans], sender.repairs_deflected,
            [skb.retrans_pending for skb in sender.sock.write_queue],
            sender.retrans_timer.pending)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1, 2**31 - 5 * MSS, 2**32 - 20 * MSS, 2**32 - 1]),
       write_queues(), st.integers(-3 * MSS, 33 * MSS),
       st.integers(1, 6 * MSS))
def test_nak_walk_queues_what_the_head_walk_queued(iss, queue, offset,
                                                   length):
    start = seq_add(iss, offset)
    end = seq_add(start, length)
    bisected, walked = sender_with(iss, queue), sender_with(iss, queue)
    bisected._queue_retransmission(start, end)
    head_walk(walked, start, end)
    assert outcome(bisected) == outcome(walked)
