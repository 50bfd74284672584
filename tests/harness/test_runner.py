"""Tests for the transfer runner and result collection."""

import pytest

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


def test_rcvbuf_defaults_to_sndbuf():
    sc = build_lan(1, 10e6, seed=41)
    res = run_transfer(sc, nbytes=50_000, sndbuf=96 * 1024)
    assert res.ok  # just exercises the default path


def test_receiver_stats_aggregated():
    sc = build_lan(3, 10e6, seed=42)
    res = run_transfer(sc, nbytes=100_000, sndbuf=128 * 1024)
    assert res.receiver_stats.joins_sent == 3
    assert res.receiver_stats.data_pkts_rcvd > 0


def test_max_sim_s_bounds_broken_runs():
    """A run that cannot finish must still return at the time bound."""
    sc = build_lan(1, 10e6, seed=43)
    # receiver never joins the group: transfer cannot complete
    sc.receivers[0].nic.join_group = lambda g: None  # sabotage NIC join
    res = run_transfer(sc, nbytes=100_000, sndbuf=64 * 1024, max_sim_s=2.0)
    assert not res.ok
    assert res.duration_us <= 2_000_001


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
        run_transfer(sc, nbytes=200_000, sndbuf=64 * 1024, max_sim_s=30)
    assert isinstance(info.value.__cause__, OSError)


def test_a_failed_run_is_not_cached(monkeypatch, tmp_path):
    """The same death through the fleet: a failed job, no summary
    stored -- the next sweep runs the cell again instead of serving a
    plausible-looking result from a run that lost a receiver."""
    from repro.fleet import Fleet
    from repro.harness import runner
    from repro.workloads.spec import RunSpec
    monkeypatch.setattr(runner, "ReceiverApp", _dying_receiver_app("rcv1"))
    spec = RunSpec.lan(2, 10e6, seed=45, nbytes=200_000, max_sim_s=30)
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


def test_only_a_reader_gets_a_flight_recorder():
    """An observer alone subscribes to the tap and keeps no capture;
    the lineage artifact dump reads one, and gets the 256-event ring."""
    from repro.obs.observer import Observability
    for lineage, kept in ((False, 0), (True, 256)):
        obs = Observability(lineage=lineage)
        res = run_transfer(build_lan(2, 10e6, seed=46), nbytes=200_000,
                           sndbuf=128 * 1024, obs=obs)
        assert res.ok and obs.spans.one_way_us.count > 256
        assert len(obs.tracer.events) == kept
        assert obs.tracer.dropped > 0
