"""Failure-injection tests: corruption, crashed senders, locked sockets."""

from dataclasses import replace

from repro.core.config import HRMCConfig
from repro.core.protocol import open_hrmc_socket
from repro.harness.runner import run_transfer
from repro.kernel.payload import PatternPayload
from repro.net.topology import GroupSpec
from repro.sim.process import Process
from repro.workloads.scenarios import build_wan, build_lan


def test_corruption_detected_and_recovered():
    """Bit errors on the wire are caught by the checksum and repaired
    through the normal NAK path; the delivered stream stays exact."""
    sc = build_wan([GroupSpec("X", 10_000, 0.0)] * 3, 10e6, seed=50)
    # bit errors at every receiver's interface
    for host in sc.receivers:
        host.nic.fault_corrupt_rate = 0.01
    res = run_transfer(sc, nbytes=300_000, sndbuf=128 * 1024,
                       verify="bytes", max_sim_s=300)
    assert res.ok
    corrupted = sum(h.nic.fault_corruptions for h in sc.receivers)
    assert sc.sim.drops["checksum"] == corrupted > 0
    assert res.sender_stats.naks_rcvd > 0   # recovery actually ran


def test_sender_crash_unblocks_receivers():
    sc = build_lan(2, 10e6, seed=51)
    cfg = replace(HRMCConfig(expected_receivers=2).with_rate_cap(10e6),
                  session_timeout_us=3_000_000)
    ssock = open_hrmc_socket(sc.sender, cfg, sndbuf=128 * 1024)
    rsocks = [open_hrmc_socket(h, cfg, rcvbuf=128 * 1024)
              for h in sc.receivers]
    outcome = {}

    def rapp(i, sock):
        sock.join(sc.group_addr, sc.data_port)
        got = 0
        while True:
            chunks = yield from sock.recv_payloads(1 << 20)
            if not chunks:
                break
            got += sum(c.length for c in chunks)
        outcome[i] = (got, sock.transport.receiver.error)

    def sapp(sock):
        sock.bind(sc.sender_port)
        sock.connect(sc.group_addr, sc.data_port)
        yield from sock.send(PatternPayload(0, 400_000))
        sock.abort()   # crash before FIN: no close handshake

    for i, rs in enumerate(rsocks):
        Process(sc.sim, rapp(i, rs))
    Process(sc.sim, sapp(ssock))
    sc.sim.run(until=60_000_000)
    assert len(outcome) == 2, "receivers must not hang forever"
    for got, error in outcome.values():
        assert error is not None and "timeout" in error


def test_backlog_queue_preserves_packets_during_lock():
    """Packets arriving while the application copy holds the socket are
    backlogged, not lost, and the stream stays exact."""
    sc = build_lan(1, 100e6, seed=52)
    # huge copy cost -> long locked windows while data keeps arriving
    from repro.kernel.host import CostModel
    slow_copy = CostModel(copy_per_byte_us=0.2)
    sc.receivers[0].cost = slow_copy
    res = run_transfer(sc, nbytes=500_000, sndbuf=256 * 1024,
                       verify="bytes", max_sim_s=120)
    assert res.ok


def test_liveness_timer_not_tripped_by_idle_but_alive_sender():
    """Keepalives keep the session alive through long idle stretches."""
    sc = build_lan(1, 10e6, seed=53)
    cfg = replace(HRMCConfig(expected_receivers=1).with_rate_cap(10e6),
                  session_timeout_us=5_000_000)
    ssock = open_hrmc_socket(sc.sender, cfg, sndbuf=128 * 1024)
    rsock = open_hrmc_socket(sc.receivers[0], cfg, rcvbuf=128 * 1024)
    outcome = {}

    def rapp(sock):
        sock.join(sc.group_addr, sc.data_port)
        got = 0
        while True:
            chunks = yield from sock.recv_payloads(1 << 20)
            if not chunks:
                break
            got += sum(c.length for c in chunks)
        outcome["got"] = got
        outcome["error"] = sock.transport.receiver.error
        yield from sock.close()

    def sapp(sock):
        from repro.sim.process import Delay
        sock.bind(sc.sender_port)
        sock.connect(sc.group_addr, sc.data_port)
        yield from sock.send(PatternPayload(0, 50_000))
        yield Delay(10_000_000)     # 10 s idle: keepalives must cover it
        yield from sock.send(PatternPayload(50_000, 50_000))
        yield from sock.close()

    Process(sc.sim, rapp(rsock))
    Process(sc.sim, sapp(ssock))
    sc.sim.run(until=120_000_000)
    assert outcome.get("got") == 100_000
    assert outcome.get("error") is None


def test_lost_join_on_tiny_transfer_does_not_deadlock_close():
    """Regression (found by the chaos fuzzer): a 1-byte transfer ends
    before the join-retry timer fires, so a receiver whose JOIN was
    lost says LEAVE without the sender ever counting its join.  The
    LEAVE must satisfy the join quorum, or the sender's close blocks
    until the simulation horizon."""
    sc = build_wan([GroupSpec("F", 1_000, 0.03125)] * 2, 10e6, seed=123)
    res = run_transfer(sc, nbytes=1, sndbuf=16 * 1024, verify="bytes",
                       max_sim_s=900)
    # ok requires the sender's close handshake to have completed too
    assert res.ok, [r.bytes_done for r in res.per_receiver]
    assert res.sender_stats.keepalives_sent < 5  # no multi-second stall
