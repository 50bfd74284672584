"""Tests for the transport glue and socket facade semantics."""

import pytest

from repro.core.config import HRMCConfig
from repro.core.protocol import HRMCTransport, open_hrmc_socket
from repro.kernel.payload import PatternPayload
from repro.sim.process import Process
from repro.workloads.scenarios import build_lan


def test_bind_before_connect_required():
    sc = build_lan(1, 10e6)
    t = HRMCTransport(sc.sender)
    with pytest.raises(RuntimeError):
        t.connect("224.1.0.1", 6000)


def test_double_bind_rejected():
    sc = build_lan(1, 10e6)
    t = HRMCTransport(sc.sender)
    t.bind(5000)
    with pytest.raises(RuntimeError):
        t.bind(5001)


def test_role_exclusivity():
    sc = build_lan(2, 10e6)
    t = HRMCTransport(sc.receivers[0])
    t.join("224.1.0.1", 6000)
    with pytest.raises(RuntimeError):
        t.connect("224.1.0.1", 6000)
    t2 = HRMCTransport(sc.sender)
    t2.bind(5000)
    t2.connect("224.1.0.1", 6000)
    with pytest.raises(RuntimeError):
        t2.join("224.1.0.1", 6000)


def test_join_registers_with_network():
    sc = build_lan(2, 10e6)
    t = HRMCTransport(sc.receivers[0])
    t.join("224.1.0.1", 6000)
    assert sc.receivers[0].nic.in_group("224.1.0.1")
    t.abort()
    assert not sc.receivers[0].nic.in_group("224.1.0.1")


def test_send_on_receiving_socket_rejected():
    sc = build_lan(2, 10e6)
    t = HRMCTransport(sc.receivers[0])
    t.join("224.1.0.1", 6000)
    with pytest.raises(RuntimeError):
        t.sendmsg_some(PatternPayload(0, 10))


def test_recv_on_sending_socket_rejected():
    sc = build_lan(1, 10e6)
    t = HRMCTransport(sc.sender)
    t.bind(5000)
    t.connect("224.1.0.1", 6000)
    with pytest.raises(RuntimeError):
        t.recvmsg(100)


def test_rmc_config_disables_hybrid_features():
    cfg = HRMCConfig().as_rmc()
    assert not cfg.updates_enabled
    assert not cfg.probes_enabled
    assert not cfg.reliable_release
    assert not cfg.dynamic_update_timer


def test_rmc_socket_runs_end_to_end():
    sc = build_lan(1, 10e6, seed=30)
    rmc = HRMCConfig().as_rmc()
    ssock = open_hrmc_socket(sc.sender, rmc, sndbuf=128 * 1024)
    rsock = open_hrmc_socket(sc.receivers[0], rmc, rcvbuf=128 * 1024)
    got = {}

    def rapp():
        rsock.join(sc.group_addr, sc.data_port)
        n = 0
        while True:
            chunks = yield from rsock.recv_payloads(1 << 20)
            if not chunks:
                break
            n += sum(c.length for c in chunks)
        got["n"] = n
        yield from rsock.close()

    def sapp():
        ssock.bind(sc.sender_port)
        ssock.connect(sc.group_addr, sc.data_port)
        yield from ssock.send(PatternPayload(0, 100_000))
        yield from ssock.close()

    Process(sc.sim, rapp())
    Process(sc.sim, sapp())
    sc.sim.run(until=60_000_000)
    assert got.get("n") == 100_000
    # no hybrid machinery was used
    assert ssock.transport.stats.probes_sent == 0
    assert ssock.transport.stats.updates_rcvd == 0


def test_socket_send_accepts_raw_bytes():
    sc = build_lan(1, 10e6, seed=31)
    cfg = HRMCConfig(expected_receivers=1).with_rate_cap(10e6)
    ssock = open_hrmc_socket(sc.sender, cfg)
    rsock = open_hrmc_socket(sc.receivers[0], cfg)
    got = {}

    def rapp():
        rsock.join(sc.group_addr, sc.data_port)
        data = yield from rsock.recv(1 << 20)
        got["data"] = data
        yield from rsock.close()

    def sapp():
        ssock.bind(sc.sender_port)
        ssock.connect(sc.group_addr, sc.data_port)
        yield from ssock.send(b"raw bytes over multicast")
        yield from ssock.close()

    Process(sc.sim, rapp())
    Process(sc.sim, sapp())
    sc.sim.run(until=60_000_000)
    assert got.get("data") == b"raw bytes over multicast"


def test_recv_returns_empty_at_eof():
    sc = build_lan(1, 10e6, seed=32)
    cfg = HRMCConfig(expected_receivers=1).with_rate_cap(10e6)
    ssock = open_hrmc_socket(sc.sender, cfg)
    rsock = open_hrmc_socket(sc.receivers[0], cfg)
    reads = []

    def rapp():
        rsock.join(sc.group_addr, sc.data_port)
        while True:
            data = yield from rsock.recv(1 << 20)
            reads.append(len(data))
            if not data:
                break
        yield from rsock.close()

    def sapp():
        ssock.bind(sc.sender_port)
        ssock.connect(sc.group_addr, sc.data_port)
        yield from ssock.send(b"x" * 5000)
        yield from ssock.close()

    Process(sc.sim, rapp())
    Process(sc.sim, sapp())
    sc.sim.run(until=60_000_000)
    assert sum(reads) == 5000
    assert reads[-1] == 0


def test_socket_blocks_until_buffer_space():
    """send() of more than sndbuf must block and complete gradually."""
    sc = build_lan(1, 10e6, seed=33)
    cfg = HRMCConfig(expected_receivers=1).with_rate_cap(10e6)
    ssock = open_hrmc_socket(sc.sender, cfg, sndbuf=32 * 1024)
    rsock = open_hrmc_socket(sc.receivers[0], cfg, rcvbuf=32 * 1024)
    marks = {}

    def rapp():
        rsock.join(sc.group_addr, sc.data_port)
        n = 0
        while True:
            chunks = yield from rsock.recv_payloads(1 << 20)
            if not chunks:
                break
            n += sum(c.length for c in chunks)
        marks["rcv"] = n
        yield from rsock.close()

    def sapp():
        ssock.bind(sc.sender_port)
        ssock.connect(sc.group_addr, sc.data_port)
        t0 = sc.sim.now
        yield from ssock.send(PatternPayload(0, 500_000))
        marks["send_blocked_us"] = sc.sim.now - t0
        yield from ssock.close()

    Process(sc.sim, rapp())
    Process(sc.sim, sapp())
    sc.sim.run(until=60_000_000)
    assert marks.get("rcv") == 500_000
    assert marks["send_blocked_us"] > 100_000  # really blocked


def test_segments_go_straight_to_the_role_or_wait_in_arrival_order():
    """The transport hands a segment to the packet processor of the role
    it took at connect/join time; before that a bound socket drops it
    (as ever), and under the socket lock segments queue and are
    processed first-in first-out on unlock -- also when the processing
    of one re-locks the socket."""
    from repro.core.types import PacketType
    from repro.kernel.skbuff import SKBuff

    sc = build_lan(1, 10e6)
    skb = SKBuff(sport=5000, dport=6000, seq=1, ptype=PacketType.KEEPALIVE)
    idle = HRMCTransport(sc.receivers[0])
    idle.bind(6001)
    idle.segment_received(skb, sc.sender.addr)      # no role yet: dropped
    t = HRMCTransport(sc.receivers[0])
    t.join(sc.group_addr, 6000)
    seen = []

    def deliver(skb, src):
        seen.append(skb.seq)
        if skb.seq == 2:
            t.lock()

    t._deliver = deliver
    t.segment_received(skb, sc.sender.addr)
    assert seen == [1]
    t.lock()
    for seq in (2, 3, 4):
        t.segment_received(
            SKBuff(sport=5000, dport=6000, seq=seq,
                   ptype=PacketType.KEEPALIVE), sc.sender.addr)
    assert seen == [1]
    t.unlock()
    assert seen == [1, 2] and t.sock.locked         # re-locked: 3, 4 wait
    t.unlock()
    assert seen == [1, 2, 3, 4] and not t._backlog
