"""The receive queue may hold the sender's own skb.

A segment that starts exactly at ``rcv_nxt`` is queued as it arrived
(H-RMC's ``HRMCReceiver._integrate`` and the baselines'
``ReassemblyBuffer._integrate``); only a trimmed overlap gets a private
skb.  That is safe because the receive side reads only ``seq``,
``length`` and ``payload``, and no sender writes those once the skb is
built.  These tests hold the senders to it on a lossy run with
retransmissions: a queued skb has the ``seq``, ``length`` and
``payload`` it had when it first reached a receiver and the same when
``recvmsg`` takes it, and no data segment a receiver has seen (queued,
parked or dropped as a duplicate) is rewritten before the run ends.
"""

import pytest

from repro.core.sender import HRMCSender
from repro.harness.runner import run_transfer
from repro.kernel.host import Host
from repro.kernel.skbuff import SkbQueue
from repro.workloads import build_wan, expand_test_case

SEED = 7


def facts(skb):
    return skb.seq, skb.length, skb.payload


class QueueWatch:
    """Snapshots every segment at its first arrival and every skb
    entering a receive queue, and compares them with the skb as it is
    queued, dequeued and left after the run."""

    def __init__(self, monkeypatch):
        self.arrived: dict[int, tuple] = {}   # id -> (skb, facts)
        self.held: dict[int, list] = {}       # queue id -> [(skb, facts)]
        self.taken: list[tuple] = []
        self.changed: list[tuple] = []
        self.shared = 0                       # queued as it arrived
        packet_arrived = Host._packet_arrived
        enqueue, requeue = SkbQueue.enqueue, SkbQueue.requeue_front
        dequeue = SkbQueue.dequeue

        def watched_arrival(host, pkt):
            skb = pkt.segment
            self.arrived.setdefault(id(skb), (skb, facts(skb)))
            packet_arrived(host, pkt)

        def watched_enqueue(q, skb):
            if q.name == "receive":
                first = self.arrived.get(id(skb))
                if first is not None and first[0] is skb:
                    self.shared += 1
                    self.check(skb, first[1], "queued")
                self.held.setdefault(id(q), []).append((skb, facts(skb)))
            enqueue(q, skb)

        def watched_requeue(q, skb):
            if q.name == "receive":
                self.held[id(q)].insert(0, (skb, facts(skb)))
            requeue(q, skb)

        def watched_dequeue(q):
            skb = dequeue(q)
            if q.name == "receive" and skb is not None:
                queued, before = self.held[id(q)].pop(0)
                assert queued is skb
                self.check(skb, before, "recvmsg")
                self.taken.append((skb, before))
            return skb

        monkeypatch.setattr(Host, "_packet_arrived", watched_arrival)
        monkeypatch.setattr(SkbQueue, "enqueue", watched_enqueue)
        monkeypatch.setattr(SkbQueue, "requeue_front", watched_requeue)
        monkeypatch.setattr(SkbQueue, "dequeue", watched_dequeue)

    def check(self, skb, before, when):
        if facts(skb) != before:
            self.changed.append((when, before, facts(skb)))

    def finish(self):
        for skb, before in [*self.arrived.values(), *self.taken]:
            if skb.payload is not None:
                self.check(skb, before, "end of run")
        return self.changed


def lossy_run(protocol, **kwargs):
    """`wan-case-3` of the pinned statistics: ten receivers behind lossy
    routers, with retransmissions for every protocol."""
    scenario = build_wan(expand_test_case(3, 10), 10e6, seed=SEED)
    return run_transfer(scenario, seed=SEED, nbytes=300_000,
                        sndbuf=256 * 1024, protocol=protocol, **kwargs)


@pytest.mark.parametrize("protocol", ["hrmc", "ack", "polling", "tcp"])
def test_queued_skbs_are_never_rewritten(protocol, monkeypatch):
    watch = QueueWatch(monkeypatch)
    result = lossy_run(protocol)
    assert watch.finish() == []
    assert result.ok
    assert result.sender_stats.retrans_pkts > 0
    assert watch.shared > 0 and len(watch.taken) >= watch.shared
    assert not any(watch.held.values())       # every queued skb was read


def test_a_sender_rewriting_a_sent_skb_is_caught(monkeypatch):
    """Mutation: the H-RMC sender trims a byte off every skb it
    retransmits, after handing it to IP, so segments receivers hold
    from the first transmission change under them.  The stream stalls,
    so the run is cut short."""
    send = HRMCSender._send_data

    def rewriting(self, skb, now, *, retrans):
        send(self, skb, now, retrans=retrans)
        if retrans:
            skb.length -= 1

    monkeypatch.setattr(HRMCSender, "_send_data", rewriting)
    watch = QueueWatch(monkeypatch)
    assert not lossy_run("hrmc", max_sim_s=5).ok
    assert watch.finish()
