"""The profiled observer over one lossy run and the pinned transfers:
what it attributes, and that a run has one watch."""

import pytest

from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.profiler import Observability
from repro.workloads.scenarios import build_lan, build_wan
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
    assert obs.attached and sc.sim.watch is obs.profiler
    # the observer adds no event of its own
    assert obs.profiler.events == res.sim_events


def test_an_observer_is_the_profiler():
    """The one observer option is the engine profiler: without it
    there is nothing to attach."""
    with pytest.raises(ValueError, match="profile=True"):
        Observability(profile=False)
    with pytest.raises(TypeError):
        Observability()


def test_profiler_attribution(observed_run):
    _, obs, res = observed_run
    prof = obs.profiler
    assert prof.events == res.sim_events
    assert sum(s.events for s in prof.sites.values()) == prof.events
    assert sum(s.wall_ns for s in prof.sites.values()) == prof.wall_ns_total


#: engine events per callback site of two pinned transfers (every
#: timer folds into ``timer.Timer._fire``)
PINNED_SITE_EVENTS = {
    "lan-2": {
        "filetransfer.ReceiverApp._resume": 2786, "host.Host._xmit": 1507,
        "link.SharedLink._deliver_all": 1507,
        "nic.NetworkInterface._rx_done": 2880,
        "nic.NetworkInterface._tx_done": 1507,
        "process.Process._resume": 45, "timer.Timer._fire": 87},
    "wan-case-3": {
        "filetransfer.ReceiverApp._resume": 2753, "host.Host._xmit": 358,
        "nic.NetworkInterface._rx_done": 2271,
        "nic.NetworkInterface._tx_done": 358,
        "process.Process._resume": 20,
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
    for t in (10, 20):
        sc.sim.call_at(t, lambda: None)
    sc.sim.run()
    assert first.profiler.events == sc.sim.events_processed == 2


def test_obs_attach_is_single_use(observed_run):
    sc, obs, _ = observed_run
    with pytest.raises(RuntimeError):
        obs.attach(sc)
