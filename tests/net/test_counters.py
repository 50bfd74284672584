"""Accounting tests for fabric counters (links, pipes, NICs)."""

from repro.net.link import SharedLink
from repro.net.nic import NetworkInterface
from repro.net.packet import NetPacket
from repro.net.router import Pipe
from repro.sim.engine import Simulator


class FakeSeg:
    dport = 7
    length = 0


def mkpkt(src, dst, seg_bytes=1000):
    return NetPacket(src, dst, FakeSeg(), seg_bytes)


def test_link_carries_counters():
    sim = Simulator()
    link = SharedLink(sim, 10e6)
    a = NetworkInterface(sim, "10.0.0.1")
    b = NetworkInterface(sim, "10.0.0.2")
    link.attach(a), link.attach(b)
    a.attach(link), b.attach(link)
    b.rx_handler = lambda pkt: None
    for _ in range(5):
        a.try_transmit(mkpkt(a.addr, b.addr, 500))
    sim.run()
    assert link.frames_carried == 5
    assert link.bytes_carried == 5 * (500 + 38)
    assert a.tx_packets == 5
    assert a.tx_bytes == link.bytes_carried
    assert b.rx_packets == 5


def test_pipe_corruption_counted_and_flagged():
    sim = Simulator()
    got = []

    class Sink:
        def ingress(self, pkt):
            got.append(pkt)

    pipe = Pipe(sim, 1e9, corrupt_rate=1.0, seed=1)
    pipe.connect(Sink())
    pkt = mkpkt("a", "b")
    pipe.send(pkt)
    sim.run()
    assert pipe.corruptions == 1
    assert got[0].corrupted
    assert not pkt.corrupted        # the damage went on a copy


def test_corruption_survives_fork():
    pkt = mkpkt("a", "224.1.0.1")
    pkt.corrupted = True
    assert pkt.fork().corrupted


def test_nic_tx_bytes_match_wire_size():
    sim = Simulator()
    link = SharedLink(sim, 100e6)
    a = NetworkInterface(sim, "10.0.0.1")
    b = NetworkInterface(sim, "10.0.0.2")
    link.attach(a), link.attach(b)
    a.attach(link), b.attach(link)
    b.rx_handler = lambda pkt: None
    pkt = mkpkt(a.addr, b.addr, 1480)
    a.try_transmit(pkt)
    sim.run()
    assert a.tx_bytes == pkt.wire_bytes == 1480 + 38
    assert b.rx_bytes == pkt.wire_bytes
