"""Unit tests for sk_buffs and queues."""

from repro.kernel.payload import BytesPayload
from repro.kernel.skbuff import SKBuff, SkbQueue, SKB_OVERHEAD


def mkskb(seq=0, length=100, ptype=0):
    return SKBuff(sport=1, dport=2, seq=seq, ptype=ptype, length=length,
                  payload=BytesPayload(b"x" * length))


def test_skb_fields():
    skb = SKBuff(sport=7, dport=9, seq=1000, ptype=3, length=50,
                 rate_adv=125_000, flags=0x1, tries=2)
    assert skb.end_seq == 1050
    assert skb.truesize == 50 + SKB_OVERHEAD
    assert skb.rate_adv == 125_000


def test_seq_masks_to_32_bits():
    skb = SKBuff(sport=1, dport=2, seq=2**32 + 5, ptype=0, length=10)
    assert skb.seq == 5
    skb2 = SKBuff(sport=1, dport=2, seq=2**32 - 4, ptype=0, length=10)
    assert skb2.end_seq == 6  # wraps


def test_queue_accounting():
    q = SkbQueue()
    assert len(q) == 0 and not q
    q.enqueue(mkskb(length=100))
    q.enqueue(mkskb(length=200))
    assert len(q) == 2
    assert q.bytes == 300 + 2 * SKB_OVERHEAD
    skb = q.dequeue()
    assert skb.length == 100
    assert q.bytes == 200 + SKB_OVERHEAD


def test_queue_fifo_and_peek():
    q = SkbQueue()
    a, b = mkskb(seq=1), mkskb(seq=2)
    q.enqueue(a)
    q.enqueue(b)
    assert q.peek() is a
    assert q.peek_tail() is b
    assert q.dequeue() is a
    assert q.dequeue() is b
    assert q.dequeue() is None
    assert q.peek() is None


def test_requeue_front():
    q = SkbQueue()
    a, b = mkskb(seq=1), mkskb(seq=2)
    q.enqueue(b)
    q.requeue_front(a)
    assert q.peek() is a
    assert q.bytes == a.truesize + b.truesize


def test_clear_resets_accounting():
    q = SkbQueue()
    q.enqueue(mkskb())
    q.clear()
    assert len(q) == 0
    assert q.bytes == 0


def test_queue_iteration_order():
    q = SkbQueue()
    for seq in (10, 20, 30):
        q.enqueue(mkskb(seq=seq))
    assert [s.seq for s in q] == [10, 20, 30]
