"""One heap-entry layout, two builders.

`Simulator.call_at` builds the engine's entries, and `Host.cpu_run`
builds its own (it runs several times per packet per host; DESIGN.md
S1).  Both must build the same `[time, order, callback, args]` list,
with or without a watch on the run.
"""

import pytest

from repro.kernel.host import Host
from repro.net.topology import EthernetLanTopology
from repro.sim.engine import Simulator


class _Watch:
    def execute(self, callback, args, sim_dt_us):
        callback(*args)


def _world(watch):
    sim = Simulator()
    lan = EthernetLanTopology(sim, 100e6)
    host = Host(sim, lan, lan.make_nic("10.0.0.1"))
    sim.run(until=1_000)            # a clock that is not at 0
    sim.watch = watch
    return sim, host


def _last_entry(sim):
    return max(sim._heap, key=lambda e: e[1])


@pytest.mark.parametrize("watched", [False, True], ids=["bare", "watched"])
def test_cpu_run_builds_the_entry_call_at_builds(watched):
    entries = []
    for build in ("cpu_run", "call_at"):
        sim, host = _world(_Watch() if watched else None)
        live = sim.pending()
        if build == "cpu_run":
            host.cpu_run(250, print, "a", 1)
        else:
            sim.call_at(sim.now + 250, print, "a", 1)
        assert sim.pending() == live + 1
        entries.append(_last_entry(sim))
        assert sim._order == entries[-1][1] + 1
    by_cpu_run, by_call_at = entries
    assert by_cpu_run == by_call_at
    assert type(by_cpu_run) is list and type(by_cpu_run[0]) is int
    assert by_cpu_run == [1_250, by_cpu_run[1], print, ("a", 1)]
