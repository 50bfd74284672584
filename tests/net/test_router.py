"""Unit tests for routers and pipes."""

from repro.net.nic import NetworkInterface
from repro.net.packet import NetPacket
from repro.net.router import Pipe, Router
from repro.sim.engine import Simulator


class FakeSeg:
    dport = 7
    length = 0


class SinkNode:
    def __init__(self):
        self.got = []

    def ingress(self, pkt):
        self.got.append(pkt)


def mkpkt(src, dst, seg_bytes=1000):
    return NetPacket(src, dst, FakeSeg(), seg_bytes)


def test_pipe_delivers_with_serialization_and_prop():
    sim = Simulator()
    sink = SinkNode()
    pipe = Pipe(sim, 10e6, prop_delay_us=1000)
    pipe.connect(sink)
    pipe.send(mkpkt("a", "b", 1000))
    sim.run()
    assert len(sink.got) == 1
    assert sim.now == pipe.tx_time_us(mkpkt("a", "b", 1000)) + 1000


def test_pipe_fifo_serialization():
    sim = Simulator()
    arrivals = []

    class StampingSink:
        def ingress(self, pkt):
            arrivals.append(sim.now)

    pipe = Pipe(sim, 10e6, prop_delay_us=0)
    pipe.connect(StampingSink())
    pipe.send(mkpkt("a", "b", 1000))
    pipe.send(mkpkt("a", "b", 1000))
    sim.run()
    tx = pipe.tx_time_us(mkpkt("a", "b", 1000))
    assert arrivals == [tx, 2 * tx]


def test_pipe_queue_limit_drops():
    sim = Simulator()
    sink = SinkNode()
    pipe = Pipe(sim, 10e6, queue_limit=3)
    pipe.connect(sink)
    for _ in range(10):
        pipe.send(mkpkt("a", "b"))
    sim.run()
    assert len(sink.got) == 3
    assert sim.drops == {"pipe_queue_overflow": 7}


def test_pipe_loss_rate():
    sim = Simulator()
    sink = SinkNode()
    pipe = Pipe(sim, 1e9, loss_rate=0.5, seed=3, name="lossy",
                queue_limit=10**6)
    pipe.connect(sink)
    n = 2000
    for _ in range(n):
        pipe.send(mkpkt("a", "b"))
    sim.run()
    assert 0.4 < len(sink.got) / n < 0.6
    assert sim.drops == {"pipe_loss": n - len(sink.got)}


def test_router_unicast_routing():
    sim = Simulator()
    r = Router(sim)
    s1, s2 = SinkNode(), SinkNode()
    p1 = Pipe(sim, 1e9); p1.connect(s1)
    p2 = Pipe(sim, 1e9); p2.connect(s2)
    r.add_route("10.0.0.1", p1)
    r.set_default_route(p2)
    r.ingress(mkpkt("x", "10.0.0.1"))
    r.ingress(mkpkt("x", "10.9.9.9"))  # default
    sim.run()
    assert len(s1.got) == 1
    assert len(s2.got) == 1


def test_router_no_route_drops():
    sim = Simulator()
    r = Router(sim)
    r.ingress(mkpkt("x", "10.0.0.1"))
    sim.run()
    assert sim.drops == {"no_route": 1}


def test_router_multicast_duplication():
    sim = Simulator()
    r = Router(sim)
    sinks = [SinkNode() for _ in range(3)]
    pipes = []
    for s in sinks:
        p = Pipe(sim, 1e9)
        p.connect(s)
        pipes.append(p)
    group = "224.1.0.1"
    for p in pipes:
        r.mcast_subscribe(group, p)
    pkt = mkpkt("x", group)
    r.ingress(pkt)
    sim.run()
    # duplicated "as necessary": each pipe delivers once, and all three
    # carry the one frame (only a pipe that damages it makes a copy)
    assert [s.got for s in sinks] == [[pkt]] * 3
    assert all(s.got[0] is pkt for s in sinks)


def test_router_mcast_unsubscribe():
    sim = Simulator()
    r = Router(sim)
    s = SinkNode()
    p = Pipe(sim, 1e9)
    p.connect(s)
    group = "224.1.0.1"
    r.mcast_subscribe(group, p)
    r.mcast_unsubscribe(group, p)
    r.ingress(mkpkt("x", group))
    sim.run()
    assert s.got == []
    assert sim.drops == {"no_route": 1}


def test_router_subscribe_idempotent():
    sim = Simulator()
    r = Router(sim)
    s = SinkNode()
    p = Pipe(sim, 1e9)
    p.connect(s)
    group = "224.1.0.1"
    r.mcast_subscribe(group, p)
    r.mcast_subscribe(group, p)
    r.ingress(mkpkt("x", group))
    sim.run()
    assert len(s.got) == 1  # no duplicate delivery


def test_router_correlated_loss_before_duplication():
    sim = Simulator()
    r = Router(sim, loss_rate=1.0)
    s = SinkNode()
    p = Pipe(sim, 1e9)
    p.connect(s)
    r.mcast_subscribe("224.1.0.1", p)
    r.ingress(mkpkt("x", "224.1.0.1"))
    sim.run()
    assert s.got == []
    assert sim.drops == {"router_loss": 1}


def test_nic_on_pipe_pair():
    """A NIC can use a Pipe as its medium port (WAN attachment)."""
    sim = Simulator()
    nic = NetworkInterface(sim, "10.0.0.1")
    sink = SinkNode()
    up = Pipe(sim, 10e6, prop_delay_us=100)
    up.connect(sink)
    nic.attach(up)
    nic.try_transmit(mkpkt(nic.addr, "10.0.0.2"))
    sim.run()
    assert len(sink.got) == 1
