"""Tests for the file-transfer applications."""

from repro.apps.filetransfer import AppResult, ReceiverApp, sender_app
from repro.core.config import HRMCConfig
from repro.core.protocol import open_hrmc_socket
from repro.sim.process import Process
from repro.workloads.scenarios import build_lan


def run_apps(nbytes, *, disk=False, verify="offsets", n=2):
    sc = build_lan(n, 10e6, seed=21)
    cfg = HRMCConfig(expected_receivers=n).with_rate_cap(10e6)
    ssock = open_hrmc_socket(sc.sender, cfg, sndbuf=128 * 1024)
    rsocks = [open_hrmc_socket(h, cfg, rcvbuf=128 * 1024)
              for h in sc.receivers]
    sres = AppResult(name="s")
    rres = [AppResult(name=f"r{i}") for i in range(n)]
    disks = {}
    if disk:
        from repro.apps.diskmodel import DiskModel
        disks = {i: DiskModel(sc.sim, seed=i, name=f"d{i}")
                 for i in range(n)}
    for i, rsock in enumerate(rsocks):
        ReceiverApp(rsock, group=sc.group_addr, port=sc.data_port,
                    result=rres[i], disk=disks.get(i), verify=verify)
    Process(sc.sim, sender_app(ssock, nbytes, sport=sc.sender_port,
                               group=sc.group_addr, port=sc.data_port,
                               result=sres))
    sc.sim.run(until=120_000_000)
    return sres, rres


def test_all_apps_complete_and_verify():
    sres, rres = run_apps(400_000)
    assert sres.done and sres.bytes_done == 400_000
    for r in rres:
        assert r.done and r.bytes_done == 400_000
        assert r.verified and not r.errors
        assert 0 < r.data_done_at_us <= r.finished_at_us


def test_byte_level_verification():
    _, rres = run_apps(100_000, verify="bytes")
    assert all(r.verified for r in rres)


def test_disk_receivers_complete():
    sres, rres = run_apps(300_000, disk=True)
    assert all(r.done and r.bytes_done == 300_000 for r in rres)


def test_verification_catches_corruption(monkeypatch):
    """A receiver that delivers wrong offsets must fail verification."""
    from repro.core.receiver import HRMCReceiver
    from repro.kernel.payload import PatternPayload
    sc = build_lan(1, 10e6, seed=22)
    cfg = HRMCConfig(expected_receivers=1).with_rate_cap(10e6)
    ssock = open_hrmc_socket(sc.sender, cfg, sndbuf=128 * 1024)
    rsock = open_hrmc_socket(sc.receivers[0], cfg, rcvbuf=128 * 1024)
    rres = AppResult()

    orig = HRMCReceiver.recvmsg

    def corrupt(self, max_bytes):
        out = orig(self, max_bytes)
        return [PatternPayload(p.offset + 1, p.length)
                if isinstance(p, PatternPayload) else p for p in out]

    monkeypatch.setattr(HRMCReceiver, "recvmsg", corrupt)
    ReceiverApp(rsock, group=sc.group_addr, port=sc.data_port, result=rres)
    sres = AppResult()
    Process(sc.sim, sender_app(ssock, 50_000, sport=sc.sender_port,
                               group=sc.group_addr, port=sc.data_port,
                               result=sres))
    sc.sim.run(until=60_000_000)
    assert rres.done
    assert not rres.verified
    assert rres.errors


def test_a_receiver_killed_mid_copy_unlocks_and_delivers_the_backlog():
    """A crash kills the application while its copy to user space holds
    the socket: the lock is released at kill time, and the packets that
    waited on the backlog reach the protocol then, not never."""
    sc = build_lan(1, 100e6, seed=21)
    cfg = HRMCConfig(expected_receivers=1).with_rate_cap(100e6)
    ssock = open_hrmc_socket(sc.sender, cfg, sndbuf=512 * 1024)
    rsock = open_hrmc_socket(sc.receivers[0], cfg, rcvbuf=512 * 1024)
    proc = ReceiverApp(rsock, group=sc.group_addr, port=sc.data_port,
                       result=AppResult())
    Process(sc.sim, sender_app(ssock, 2_000_000, sport=sc.sender_port,
                               group=sc.group_addr, port=sc.data_port,
                               result=AppResult()))
    transport = rsock.transport
    while not (transport.sock.locked and transport._backlog):
        assert sc.sim.step(), "the run ended without a backlogged copy"
    waiting = len(transport._backlog)
    before = transport.stats.data_pkts_rcvd
    proc.kill()
    assert not proc.alive and proc.error is None
    assert not transport.sock.locked
    assert not transport._backlog
    assert transport.stats.data_pkts_rcvd == before + waiting
