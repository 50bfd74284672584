"""Tests for the transfer runner and result collection."""

import math

import pytest

from repro.harness import runner
from repro.harness.runner import PROTOCOLS, TransferResult, run_transfer
from repro.workloads.scenarios import build_lan


def test_unknown_protocol_rejected():
    sc = build_lan(1, 10e6)
    with pytest.raises(ValueError):
        run_transfer(sc, nbytes=1000, protocol="carrier-pigeon")


def test_result_fields_consistent():
    sc = build_lan(2, 10e6, seed=40)
    res = run_transfer(sc, nbytes=200_000, sndbuf=128 * 1024)
    assert isinstance(res, TransferResult)
    assert res.protocol == "hrmc"
    assert res.nbytes == 200_000
    assert res.n_receivers == 2
    assert res.ok
    assert res.duration_us > 0
    assert res.throughput_bps == pytest.approx(
        200_000 * 8 * 1e6 / res.duration_us)
    assert res.throughput_mbps == pytest.approx(res.throughput_bps / 1e6)
    assert 0 <= res.release_complete_pct <= 100
    assert len(res.per_receiver) == 2
    assert res.sim_events > 0


def test_rcvbuf_defaults_to_sndbuf(monkeypatch):
    """One kernel buffer size: every socket's receive buffer is the
    ``sndbuf`` the run was given."""
    opened = []

    def open_socket(*args, **kwargs):
        opened.append(open_real(*args, **kwargs))
        return opened[-1]

    open_real = runner._open_socket
    monkeypatch.setattr(runner, "_open_socket", open_socket)
    sc = build_lan(1, 10e6, seed=41)
    res = run_transfer(sc, nbytes=50_000, sndbuf=96 * 1024)
    assert res.ok and len(opened) == 2
    assert {s.transport.sock.rcvbuf for s in opened} == {96 * 1024}


def test_receiver_stats_aggregated():
    sc = build_lan(3, 10e6, seed=42)
    res = run_transfer(sc, nbytes=100_000, sndbuf=128 * 1024)
    assert res.receiver_stats.joins_sent == 3
    assert res.receiver_stats.data_pkts_rcvd > 0


def test_max_sim_s_bounds_broken_runs():
    """A run that cannot finish must still return at the time bound,
    flagged as cut short and with no throughput to show."""
    sc = build_lan(1, 10e6, seed=43)
    # receiver never joins the group: transfer cannot complete
    sc.receivers[0].nic.join_group = lambda g: None  # sabotage NIC join
    res = run_transfer(sc, nbytes=100_000, sndbuf=64 * 1024, max_sim_s=2.0)
    assert not res.ok
    assert res.duration_us <= 2_000_001
    assert res.cut_short
    assert math.isnan(res.throughput_mbps)
    again = TransferResult.from_dict(res.to_dict())
    assert again.cut_short and math.isnan(again.throughput_mbps)


def test_a_finished_run_is_not_cut_short():
    """The flag is about the transfer, not the event list: seed 6's
    restarted receiver never hears the sender, which finished before
    it came back, and gives it up after the session timeout (30 s of
    silence), long before the bound; the run it belongs to finished."""
    from repro.workloads.spec import RunSpec
    scenario, kwargs = RunSpec.chaos(3, 10e6, seed=6, horizon_us=1_000_000,
                                     nbytes=250_000).build()
    res = run_transfer(scenario, **kwargs)
    assert scenario.sim.pending() == 0
    assert scenario.sim.last_event_us < 60_000_000
    [rejoin] = res.rejoin_results
    assert rejoin.errors == ["sender unreachable (session timeout)"]
    assert res.surviving_ok and not res.cut_short


def test_survivors_are_not_ok_before_the_sender_finished():
    """The bound stops this run 10 ms after both receivers verified the
    whole stream, before the sender closed: it is cut short, and with
    no receiver crashed `surviving_ok` is `ok`, False -- as it is for
    the record with only the flag set."""
    full = run_transfer(build_lan(2, 10e6, seed=40), nbytes=200_000,
                        sndbuf=128 * 1024)
    res = run_transfer(build_lan(2, 10e6, seed=40), nbytes=200_000,
                       sndbuf=128 * 1024,
                       max_sim_s=(full.duration_us + 10_000) / 1e6)
    assert all(r.done and r.verified and r.bytes_done == 200_000
               for r in res.per_receiver)
    assert res.cut_short and res.surviving_ok is res.ok is False
    record = dict(full.to_dict(), cut_short=True)
    assert TransferResult.from_dict(record).surviving_ok is False


def test_survivors_of_a_run_that_lost_data_are_not_ok():
    """`ablation-probes`' pure-NAK arm with MINBUF=1 abandons gaps."""
    from repro.fleet.worker import run_spec
    from repro.harness.experiments import plan_experiment
    [spec] = [s for s in plan_experiment("ablation-probes")
              if s.protocol == "rmc" and s.cfg == {"minbuf_rtts": 1}]
    res = run_spec(spec)
    assert res.lost_bytes > 0
    assert res.surviving_ok is res.ok is False


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_protocol_produces_result(protocol):
    sc = build_lan(2, 10e6, seed=44)
    res = run_transfer(sc, nbytes=80_000, protocol=protocol,
                       sndbuf=128 * 1024, max_sim_s=120)
    assert res.ok, protocol
    assert res.protocol == protocol


# -- a run that lost a process is a failed run -------------------------------

def _dying_receiver_app(name: str):
    """`ReceiverApp`, except that receiver ``name`` writes to a full
    disk: it joins, reads one chunk and then hits an error no protocol
    code handles."""
    from repro.apps.filetransfer import ReceiverApp

    class FullDisk:
        def write_us(self, nbytes):
            raise OSError("disk full")

    def app(sock, *, result, **kw):
        if result.name == name:
            kw["disk"] = FullDisk()
        return ReceiverApp(sock, result=result, **kw)

    return app


def test_a_process_that_dies_mid_transfer_fails_the_run(monkeypatch):
    from repro.harness import runner
    monkeypatch.setattr(runner, "ReceiverApp", _dying_receiver_app("rcv1"))
    sc = build_lan(2, 10e6, seed=45)
    with pytest.raises(RuntimeError, match="'rcv1'.*disk full") as info:
        run_transfer(sc, nbytes=200_000, sndbuf=64 * 1024)
    assert isinstance(info.value.__cause__, OSError)
    # the run stops at the death, not at the 3600 s bound
    assert sc.sim.last_event_us == sc.sim.now < 1_000_000


def test_a_failed_run_is_not_cached(monkeypatch, tmp_path):
    """The same death through the fleet: a failed job, no summary
    stored -- the next sweep runs the cell again instead of serving a
    plausible-looking result from a run that lost a receiver."""
    from repro.fleet import Fleet
    from repro.harness import runner
    from repro.workloads.spec import RunSpec
    monkeypatch.setattr(runner, "ReceiverApp", _dying_receiver_app("rcv1"))
    spec = RunSpec.lan(2, 10e6, seed=45, nbytes=200_000)
    fleet = Fleet(workers=1, cache_dir=str(tmp_path / "c"))
    results = fleet.run_specs([spec], strict=False)
    assert results == {}
    assert fleet.stats.failed == 1 and fleet.stats.executed == 0
    assert fleet.store.get(spec) is None
    assert fleet.store.status().entries == 0


def test_a_killed_process_is_not_a_lost_one():
    """`kill()` -- how the fault injector crashes a receiver -- leaves
    no error behind, and the run still returns its result."""
    from repro.workloads.scenarios import build_chaos
    sc = build_chaos(3, 10e6, seed=10, horizon_us=1_000_000)
    res = run_transfer(sc, nbytes=200_000, sndbuf=128 * 1024, max_sim_s=300)
    assert res.crashed_receivers and res.surviving_ok


def test_a_profiler_alone_installs_no_seam(monkeypatch):
    """The profiler reads the engine's events through its one hook, so
    a run it observes with no checker and no capture builds no tracer
    and leaves the packet seam empty.  The invariant checker's
    violation tail is the one reader of a capture nobody passed in, and
    gets the 256-event ring."""
    from repro.obs.profiler import Observability
    from repro.trace import tracer as tracer_module
    made = []

    class Recorded(tracer_module.PacketTracer):
        def __init__(self, **kw):
            super().__init__(**kw)
            made.append(self)

    monkeypatch.setattr(tracer_module, "PacketTracer", Recorded)
    observed = build_lan(2, 10e6, seed=46)
    obs = Observability(profile=True)
    res = run_transfer(observed, nbytes=200_000, sndbuf=128 * 1024, obs=obs)
    assert res.ok and obs.profiler.events == res.sim_events
    assert made == []
    assert observed.sim.tap is None and observed.sim.watch is obs.profiler

    checked = build_lan(2, 10e6, seed=46)
    res = run_transfer(checked, nbytes=200_000, sndbuf=128 * 1024,
                       invariants=True)
    assert res.ok and len(made) == 1
    assert checked.sim.tap is not None and checked.sim.watch is None
    assert len(made[0].events) == 256 and made[0].dropped > 0
