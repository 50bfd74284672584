"""Series, profiler and exporter tests over one observed lossy run."""

import json

import pytest

from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.observer import Observability
from repro.workloads.scenarios import build_lan, build_wan
from repro.workloads.spec import RunSpec
from tests.harness.test_pinned_stats import PINNED, SEED

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


@pytest.fixture(scope="module")
def observed_run():
    sc = build_wan([LOSSY] * 3, 10e6, seed=7)
    obs = Observability(profile=True)
    res = run_transfer(sc, nbytes=300_000, sndbuf=256 * 1024,
                       max_sim_s=300, obs=obs)
    return sc, obs, res


def test_run_completes_and_obs_attached(observed_run):
    sc, obs, res = observed_run
    assert res.ok
    assert res.obs is obs
    assert obs.finalized_at_us == res.obs.finalized_at_us is not None
    assert obs.registry.scrapes > 2


def test_series_populated(observed_run):
    _, obs, res = observed_run
    for name in ("engine.queue_depth", "sender.sndbuf_used_bytes",
                 "sender.window_bytes", "sender.rate_adv_bps",
                 "recv.rcvbuf_used_bytes", "recv.repair_cache_bytes"):
        assert len(obs.registry.series[name]) > 0, name
    # 2% loss guarantees NAK traffic, visible in the rate series
    naks = obs.registry.series["sender.naks_per_s"]
    assert max(naks.values) > 0
    assert res.sender_stats.naks_rcvd > 0


def test_rcvbuf_series_counts_parked_segments(observed_run):
    """The application empties the in-order queue between scrapes, so
    on a lossy run the receive buffer holds the out-of-order segments
    parked behind each hole, and the series must show them."""
    _, obs, res = observed_run
    assert res.receiver_stats.out_of_order_pkts > 0
    assert max(obs.registry.series["recv.rcvbuf_used_bytes"].values) > 0


def test_a_baseline_run_counts_parked_segments_and_has_no_nak_series():
    """A baseline parks out-of-order segments in its reassembly buffer,
    and the receive-buffer series counts them as it does H-RMC's; it
    never NAKs, so it has no NAK-rate samples and no row for them."""
    scenario, kwargs = RunSpec.wan(
        test=2, receivers=3, bandwidth_bps=10e6, seed=21, nbytes=200_000,
        protocol="ack").build()
    obs = Observability()
    res = run_transfer(scenario, obs=obs, **kwargs)
    assert res.ok and sum(res.drop_summary.values()) > 0
    assert max(obs.registry.series["recv.rcvbuf_used_bytes"].values) > 0
    rows = [row[0] for row in obs.registry.summary_rows()]
    assert "sender.naks_per_s" not in rows
    assert "sender.retrans_per_s" in rows


def test_profiler_attribution(observed_run):
    _, obs, res = observed_run
    prof = obs.profiler
    assert prof.events == res.sim_events
    assert sum(s.events for s in prof.sites.values()) == prof.events
    assert sum(s.wall_ns for s in prof.sites.values()) == prof.wall_ns_total
    assert prof.events_per_sec() > 0
    top = prof.top(5)
    assert 0 < len(top) <= 5
    # ranked by wall time, shares parse as percentages
    walls = [row[3] for row in top]
    assert walls == sorted(walls, reverse=True)
    assert all(row[4].endswith("%") for row in top)


#: engine events per callback site of two pinned transfers (every
#: timer folds into ``timer.Timer._fire``)
PINNED_SITE_EVENTS = {
    "lan-2": {
        "filetransfer.ReceiverApp._resume": 2786, "host.Host._xmit": 1507,
        "link.SharedLink._deliver_all": 1507,
        "nic.NetworkInterface._rx_done": 2880,
        "nic.NetworkInterface._tx_done": 1507,
        "observer.Observability._tick": 17, "process.Process._resume": 45,
        "timer.Timer._fire": 87},
    "wan-case-3": {
        "filetransfer.ReceiverApp._resume": 2753, "host.Host._xmit": 358,
        "nic.NetworkInterface._rx_done": 2271,
        "nic.NetworkInterface._tx_done": 358,
        "observer.Observability._tick": 56, "process.Process._resume": 20,
        "router.Pipe._deliver": 2629, "router.Router._forward": 713,
        "router.Router.ingress": 358, "timer.Timer._fire": 454},
}


@pytest.mark.parametrize("name", PINNED_SITE_EVENTS)
def test_site_events_of_the_pinned_transfers(name):
    """Where the engine's events go is deterministic: the per-site
    counts of two pinned transfers, which add up to the engine's own."""
    build, kwargs = PINNED[name][:2]
    obs = Observability(profile=True)
    res = run_transfer(build(), seed=SEED, obs=obs, **kwargs)
    assert res.ok
    sites = {site: s.events for site, s in obs.profiler.sites.items()}
    assert sites == PINNED_SITE_EVENTS[name]
    assert sum(sites.values()) == res.sim_events


def test_a_second_watch_on_one_run_raises():
    """One run has one watch, as it has one tracer: a second profiled
    observer is refused, since it would take the engine's events from
    the first, which would then report none."""
    sc = build_lan(2, 10e6, seed=5)
    first = Observability(profile=True).attach(sc)
    second = Observability(profile=True)
    with pytest.raises(RuntimeError, match="already has a watch"):
        second.attach(sc)
    assert not second.attached
    assert sc.sim.watch is first.profiler
    Observability().attach(sc)      # no watch: no conflict
    for t in (10, 20):
        sc.sim.call_at(t, lambda: None)
    sc.sim.run()
    assert first.profiler.events == sc.sim.events_processed == 2


def test_jsonl_and_csv_exports(observed_run, tmp_path):
    _, obs, _ = observed_run
    paths = obs.write_artifacts(str(tmp_path), prefix="t")
    kinds = set()
    with open(paths["series_jsonl"]) as fh:
        for line in fh:
            rec = json.loads(line)
            kinds.add(rec["kind"])
            if rec["kind"] == "sample":
                assert rec["t_us"] >= 0 and "series" in rec
    assert "sample" in kinds
    # the samples are dumped once, as JSONL: no CSV or counter-track copy
    assert sorted(paths) == ["series_jsonl", "summary"]
    with open(paths["summary"]) as fh:
        text = fh.read()
    assert text == obs.summary() + "\n"
    assert text.startswith("metric series")


def test_obs_attach_is_single_use(observed_run):
    sc, obs, _ = observed_run
    with pytest.raises(RuntimeError):
        obs.attach(sc)


def test_lan_run_has_link_utilization():
    sc = build_lan(2, 10e6, seed=3)
    obs = Observability()
    res = run_transfer(sc, nbytes=100_000, obs=obs)
    assert res.ok
    util = obs.registry.series["link.eth0.util_pct"]
    assert len(util) > 0
    assert 0 <= max(util.values) <= 100.5
