"""One transmission is one frame object; only damage makes a copy.

The shared link and the routers hand the same `NetPacket` to every NIC
and every down pipe.  The one site that writes per-receiver state --
fault corruption at a NIC -- forks the frame before writing, so the
damage reaches only the receiver behind it.
Each test watches the packet seam (`Simulator.tap`) of a real scenario
and sends one multicast segment from the sender host.
"""

from repro.kernel.host import Transport
from repro.kernel.skbuff import SKBuff
from repro.net.topology import GroupSpec
from repro.workloads.scenarios import build_lan, build_wan


class Catcher(Transport):
    def __init__(self):
        self.got = []

    def segment_received(self, skb, src_addr):
        self.got.append(skb)


def multicast_once(scenario, damage=None):
    """Send one segment to the group; return (the sent frame, the seam's
    (fact, host, frame) log, the segments each receiver's port got)."""
    sim = scenario.sim
    facts = []
    sim.tap = lambda fact, where, pkt: facts.append((fact, where, pkt))
    catchers = []
    for host in scenario.receivers:
        catcher = Catcher()
        host.bind(scenario.data_port, catcher)
        host.join_group(scenario.group_addr)
        catchers.append(catcher)
    if damage is not None:
        damage(scenario)
    skb = SKBuff(sport=scenario.sender_port, dport=scenario.data_port,
                 seq=1, ptype=0, length=1000)
    scenario.sender.ip_send(skb, scenario.group_addr)
    sim.run()
    sent = [pkt for fact, _, pkt in facts if fact == "tx"]
    assert len(sent) == 1
    return sent[0], facts, [c.got for c in catchers]


def received(facts, fact="rx"):
    return {where: pkt for f, where, pkt in facts if f == fact}


def test_one_lan_frame_reaches_every_nic_as_the_same_object():
    sc = build_lan(5, 100e6)
    frame, facts, got = multicast_once(sc)
    rx = received(facts)
    assert sorted(rx) == sorted(h.addr for h in sc.receivers)
    assert all(pkt is frame for pkt in rx.values())
    assert all(segs == [frame.segment] for segs in got)


def wan3():
    return build_wan([GroupSpec("A", 1_000, 0.0)] * 2 +
                     [GroupSpec("B", 2_000, 0.0)], 10e6)


def test_one_wan_frame_crosses_every_down_pipe_as_the_same_object():
    sc = wan3()
    frame, facts, got = multicast_once(sc)
    rx = received(facts)
    assert sorted(rx) == sorted(h.addr for h in sc.receivers)
    assert all(pkt is frame for pkt in rx.values())
    assert all(segs == [frame.segment] for segs in got)


def assert_only_victim_damaged(sc, victim, frame, facts, got):
    bad = received(facts, "checksum")
    assert list(bad) == [victim.addr]
    assert bad[victim.addr] is not frame            # its private copy
    assert bad[victim.addr].segment is frame.segment
    assert bad[victim.addr].corrupted and not frame.corrupted
    assert sc.sim.drops == {"checksum": 1}
    rx = received(facts)
    for host, segs in zip(sc.receivers, got):
        if host is victim:
            assert segs == [] and host.addr not in rx
        else:
            assert segs == [frame.segment] and rx[host.addr] is frame


def test_nic_fault_corruption_damages_only_that_receivers_copy():
    sc = build_lan(4, 100e6)
    victim = sc.receivers[1]

    def corrupt(sc):
        victim.nic.fault_corrupt_rate = 1.0

    frame, facts, got = multicast_once(sc, corrupt)
    assert victim.nic.fault_corruptions == 1
    assert_only_victim_damaged(sc, victim, frame, facts, got)
