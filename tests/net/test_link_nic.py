"""Unit tests for the shared link and NIC models."""

from repro.net.link import SharedLink
from repro.net.nic import NetworkInterface
from repro.net.packet import NetPacket, IP_OVERHEAD, LINK_OVERHEAD
from repro.sim.engine import Simulator


def make_lan(n=2, bandwidth=10e6, **nic_kw):
    sim = Simulator()
    link = SharedLink(sim, bandwidth, prop_delay_us=5)
    nics = []
    for i in range(n):
        nic = NetworkInterface(sim, f"10.0.0.{i+1}", **nic_kw)
        link.attach(nic)
        nic.attach(link)
        nics.append(nic)
    return sim, link, nics


class FakeSeg:
    def __init__(self, dport=7):
        self.dport = dport
        self.length = 0


def mkpkt(src, dst, seg_bytes=1000):
    return NetPacket(src, dst, FakeSeg(), seg_bytes)


def hearing(nic):
    """The frames the medium hands ``nic``, before its address filter."""
    heard = []
    deliver = nic.medium_deliver

    def medium_deliver(pkt):
        heard.append(pkt)
        deliver(pkt)
    nic.medium_deliver = medium_deliver
    return heard


def test_wire_overheads():
    pkt = mkpkt("a", "b", 1480)
    assert pkt.wire_bytes == 1480 + IP_OVERHEAD + LINK_OVERHEAD
    assert pkt.wire_bits == pkt.wire_bytes * 8


def test_unicast_delivery_and_filtering():
    sim, link, nics = make_lan(3)
    a, b, c = nics
    got = []
    heard = hearing(c)
    b.rx_handler = lambda pkt: got.append(pkt.dst)
    c.rx_handler = lambda pkt: got.append("c-saw-it")
    a.try_transmit(mkpkt(a.addr, b.addr))
    sim.run()
    assert got == [b.addr]
    assert len(heard) == 1  # heard it on the wire, filtered by address


def test_sender_does_not_hear_own_frame():
    sim, link, (a, b) = make_lan(2)
    got = []
    a.rx_handler = lambda pkt: got.append("self")
    b.rx_handler = lambda pkt: None
    a.try_transmit(mkpkt(a.addr, b.addr))
    sim.run()
    assert got == []


def test_multicast_needs_group_join():
    sim, link, (a, b) = make_lan(2)
    got = []
    heard = hearing(b)
    b.rx_handler = lambda pkt: got.append(1)
    a.try_transmit(mkpkt(a.addr, "224.1.0.1"))
    sim.run()
    assert got == []
    assert len(heard) == 1

    b.join_group("224.1.0.1")
    a.try_transmit(mkpkt(a.addr, "224.1.0.1"))
    sim.run()
    assert got == [1]


def test_leave_group_stops_delivery():
    sim, link, (a, b) = make_lan(2)
    got = []
    b.rx_handler = lambda pkt: got.append(1)
    b.join_group("224.1.0.1")
    b.leave_group("224.1.0.1")
    a.try_transmit(mkpkt(a.addr, "224.1.0.1"))
    sim.run()
    assert got == []


def test_serialization_time_matches_bandwidth():
    # 10 Mbps, 1038-byte wire packet => 830.4 us
    sim, link, (a, b) = make_lan(2, bandwidth=10e6)
    arrivals = []
    b.rx_handler = lambda pkt: arrivals.append(sim.now)
    a.try_transmit(mkpkt(a.addr, b.addr, seg_bytes=1000))
    sim.run()
    wire_bits = (1000 + IP_OVERHEAD + LINK_OVERHEAD) * 8
    expect = round(wire_bits / 10e6 * 1e6) + 5  # tx time + prop
    assert arrivals == [expect]


def test_medium_is_serialized_between_nics():
    sim, link, nics = make_lan(3, bandwidth=10e6)
    a, b, c = nics
    arrivals = []
    c.rx_handler = lambda pkt: arrivals.append(sim.now)
    a.try_transmit(mkpkt(a.addr, c.addr, 1000))
    b.try_transmit(mkpkt(b.addr, c.addr, 1000))
    sim.run()
    assert len(arrivals) == 2
    tx = link.tx_time_us(mkpkt("x", "y", 1000))
    assert arrivals[1] - arrivals[0] == tx  # back-to-back, not overlapped


def test_tx_ring_backpressure_no_drop():
    sim, link, (a, b) = make_lan(2, tx_ring=4)
    got = []
    b.rx_handler = got.append
    sent = [mkpkt(a.addr, b.addr) for _ in range(10)]
    accepted = [pkt for pkt in sent if a.try_transmit(pkt)]
    # ring holds 4; the rest are refused, not dropped
    assert accepted == sent[:4]
    assert a.tx_space() == 0
    sim.run()
    assert got == sent[:4]


def test_rx_ring_overflow_drops():
    sim = Simulator()
    nic = NetworkInterface(sim, "10.0.0.1", rx_ring=3)
    # No cpu_run/rx_cost -> instant drain; emulate a slow host instead
    nic.rx_cost_fn = lambda pkt: 10_000
    got = []
    nic.rx_handler = got.append
    sent = [mkpkt("10.0.0.9", "10.0.0.1") for _ in range(8)]
    for pkt in sent:
        nic.medium_deliver(pkt)
    sim.run()
    # the ring keeps the first three frames, in order; the rest drop
    assert got == sent[:3]
    assert nic.rx_ring_drops == 5


def test_rx_loss_rate_drops_fraction():
    sim = Simulator()
    nic = NetworkInterface(sim, "10.0.0.1", rx_loss_rate=0.5, seed=7)
    got = []
    nic.rx_handler = lambda pkt: got.append(1)
    n = 2000
    for _ in range(n):
        nic.medium_deliver(mkpkt("10.0.0.9", "10.0.0.1"))
        sim.run()
    assert 0.4 < len(got) / n < 0.6
    assert nic.rx_loss_drops == n - len(got)


def test_one_broadcast_event_delivers_like_per_nic_events():
    """`broadcast` schedules one engine event for the whole fan-out.
    The expected values were recorded at the commit that still
    scheduled one event per attached NIC: delivery order across NICs
    and the frames each NIC heard and filtered are the same."""
    group = "224.1.1.1"
    sim, link, nics = make_lan(5)
    log = []
    for nic in nics:
        nic.rx_handler = \
            lambda pkt, nic=nic: log.append((sim.now, nic.addr, pkt.dst))
    heard = [hearing(nic) for nic in nics]
    for nic in nics[1:4]:
        nic.join_group(group)
    src = nics[2]
    for dst in (group, nics[0].addr):
        src.try_transmit(mkpkt(src.addr, dst))
    sim.run()
    assert log == [(835, "10.0.0.2", group), (835, "10.0.0.4", group),
                   (1665, "10.0.0.1", "10.0.0.1")]
    passed = [sum(addr == nic.addr for _, addr, _ in log) for nic in nics]
    assert passed == [1, 1, 0, 1, 0]
    assert [len(h) - n for h, n in zip(heard, passed)] == [1, 1, 0, 1, 2]
    # 2 tx completions, 2 fan-outs, 3 ring drains (was 13)
    assert sim.events_processed == 7


def test_fanout_shares_one_instant_with_unrelated_events():
    """Events scheduled for the arrival instant before and after the
    broadcast keep their place around the whole fan-out."""
    sim, link, (a, b, c) = make_lan(3)
    order = []
    b.medium_deliver = lambda pkt: order.append("b")
    c.medium_deliver = lambda pkt: order.append("c")
    sim.call_at(105, order.append, "before")
    link.broadcast(mkpkt(a.addr, b.addr), a, end_us=100)
    sim.call_at(105, order.append, "after")
    sim.run()
    assert order == ["before", "b", "c", "after"]


def test_join_group_rejects_a_unicast_address():
    """`medium_deliver` filters with `dst in _groups` alone; that is the
    old `is_multicast(dst) and dst in _groups` only because nothing but
    a class-D address can get into `_groups`."""
    import pytest
    from repro.net.addr import is_multicast

    sim, link, (a, b, c) = make_lan(3)
    for addr in (c.addr, "10.0.0.9", "223.255.255.255", "240.0.0.1"):
        assert not is_multicast(addr)
        with pytest.raises(ValueError, match="multicast"):
            b.join_group(addr)
        assert not b.in_group(addr)
    with pytest.raises(ValueError):
        b.join_group("not-an-address")
    # so a frame for another host's unicast address is still filtered
    got = []
    heard = hearing(b)
    b.rx_handler = got.append
    a.try_transmit(mkpkt(a.addr, c.addr))
    sim.run()
    assert got == [] and len(heard) == 1
    for group in ("224.0.0.1", "239.255.255.255"):
        b.join_group(group)
        assert b.in_group(group)
