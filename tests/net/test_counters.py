"""What the fabric carries (links, NICs): frames at their wire size, and
a corrupted frame's damage kept on its copy."""

from repro.net.link import SharedLink
from repro.net.nic import NetworkInterface
from repro.net.packet import NetPacket
from repro.sim.engine import Simulator


class FakeSeg:
    dport = 7
    length = 0


def mkpkt(src, dst, seg_bytes=1000):
    return NetPacket(src, dst, FakeSeg(), seg_bytes)


def test_link_carries_every_frame_back_to_back():
    sim = Simulator()
    link = SharedLink(sim, 10e6)
    a = NetworkInterface(sim, "10.0.0.1")
    b = NetworkInterface(sim, "10.0.0.2")
    link.attach(a), link.attach(b)
    a.attach(link), b.attach(link)
    arrivals = []
    b.rx_handler = lambda pkt: arrivals.append((sim.now, pkt))
    sent = [mkpkt(a.addr, b.addr, 500) for _ in range(5)]
    for pkt in sent:
        a.try_transmit(pkt)
    sim.run()
    assert [pkt for _, pkt in arrivals] == sent
    assert sum(pkt.wire_bytes for pkt in sent) == 5 * (500 + 38)
    # the medium serializes them: one frame time apart
    tx = link.tx_time_us(sent[0])
    assert [t for t, _ in arrivals] == \
        [tx * (i + 1) + link.prop_delay_us for i in range(5)]


def test_corruption_survives_fork():
    pkt = mkpkt("a", "224.1.0.1")
    pkt.corrupted = True
    assert pkt.fork().corrupted


def test_nic_tx_bytes_match_wire_size():
    """The NIC puts the frame's wire size on the medium: it arrives one
    wire-size transmission time, plus propagation, after it was sent."""
    sim = Simulator()
    link = SharedLink(sim, 100e6)
    a = NetworkInterface(sim, "10.0.0.1")
    b = NetworkInterface(sim, "10.0.0.2")
    link.attach(a), link.attach(b)
    a.attach(link), b.attach(link)
    arrivals = []
    b.rx_handler = lambda pkt: arrivals.append((sim.now, pkt))
    pkt = mkpkt(a.addr, b.addr, 1480)
    a.try_transmit(pkt)
    sim.run()
    assert pkt.wire_bytes == 1480 + 38
    # 1518 bytes at 100 Mbit/s: 121.44 us on the wire, then propagation
    assert arrivals == [(121 + link.prop_delay_us, pkt)]
