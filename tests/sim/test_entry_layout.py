"""One heap-entry layout, two builders.

`Simulator.call_at` builds the engine's entries, and `Host.cpu_run`
builds its own (it runs several times per packet per host; DESIGN.md
S1).  Both must build the same `[time, order, callback, args,
followers]` list and join the engine's tail by the same rule: the first
push for an instant takes a heap slot and becomes the tail, a second
push for that instant is appended to the tail's followers -- with or
without a watch on the run.
"""

import pytest

from repro.kernel.host import Host
from repro.net.topology import EthernetLanTopology
from repro.sim.engine import Simulator


def _noop(*args):
    pass


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


def _push(build, sim, host, tag, delay=250):
    if build == "cpu_run":
        host._cpu_busy_until = sim.now      # both pushes end at +delay
        host.cpu_run(delay, _noop, tag, 1)
    else:
        sim.call_at(sim.now + delay, _noop, tag, 1)


@pytest.mark.parametrize("watched", [False, True], ids=["bare", "watched"])
def test_cpu_run_builds_the_entry_call_at_builds(watched):
    """...and joins the tail as `call_at` does."""
    built = []
    for build in ("cpu_run", "call_at"):
        sim, host = _world(_Watch() if watched else None)
        live, slots = sim.pending(), len(sim._heap)
        _push(build, sim, host, "a")
        # the first push for the instant takes a slot and is the tail
        assert (sim.pending(), len(sim._heap)) == (live + 1, slots + 1)
        head = sim._tail
        assert sim._tail_time == head[0] and sim._order == head[1] + 1
        _push(build, sim, host, "b")
        # the second joins it and takes no slot
        assert (sim.pending(), len(sim._heap)) == (live + 2, slots + 1)
        assert sim._tail is head and sim.joins == 1
        assert sim.heap_pushes() == sim._order - 1
        built.append([*head[:4], [list(e) for e in head[4]]])
        # once the tail has fired, a push for its instant takes a slot
        sim.run(until=head[0])
        _push(build, sim, host, "c", delay=0)
        assert len(sim._heap) == slots + 1 and sim.joins == 1
        assert sim._tail is not head and sim._tail[0] == head[0]
    by_cpu_run, by_call_at = built
    assert by_cpu_run == by_call_at
    assert type(by_cpu_run) is list and type(by_cpu_run[0]) is int
    order = by_cpu_run[1]
    assert by_cpu_run == [1_250, order, _noop, ("a", 1),
                          [[1_250, order + 1, _noop, ("b", 1), None]]]
