"""Unit tests for the host model (CPU serialization, dispatch)."""

import pytest

from repro.harness.runner import run_transfer
from repro.kernel.host import CostModel, Host, Transport
from repro.kernel.skbuff import SKBuff
from repro.net.topology import EthernetLanTopology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Process
from repro.workloads.spec import RunSpec


def make_pair(bandwidth=100e6, cost=None):
    sim = Simulator()
    lan = EthernetLanTopology(sim, bandwidth)
    h1 = Host(sim, lan, lan.make_nic("10.0.0.1"), cost=cost)
    h2 = Host(sim, lan, lan.make_nic("10.0.0.2"), cost=cost)
    return sim, lan, h1, h2


class Catcher(Transport):
    def __init__(self):
        self.got = []

    def segment_received(self, skb, src_addr):
        self.got.append((skb, src_addr))


def mkskb(dport=5000, length=1000):
    return SKBuff(sport=4000, dport=dport, seq=0, ptype=0, length=length)


def test_cost_model_formulas():
    c = CostModel()
    assert c.proto_cost(1480) == round(10 + 0.025 * 1480)
    assert c.rx_cost(1480) == 150 + round(10 + 0.025 * 1480)
    assert c.tx_cost(100) == round(10 + 0.025 * 100)
    assert c.copy_cost(0) == 10


def test_rx_cost_memo_is_per_cost_model_and_matches_the_formula():
    fast = CostModel()
    slow = CostModel(lower_layer_us=400.4, per_byte_us=0.1,
                     syscall_us=20.5, copy_per_byte_us=0.01)
    for _ in range(2):                      # second pass reads the memo
        for n in (0, 20, 1020, 1480, 9000):
            assert fast.rx_cost(n) == 150 + round(10 + 0.025 * n)
            assert slow.rx_cost(n) == round(400.4) + slow.proto_cost(n)
            assert fast.copy_cost(n) == round(10 + 0.005 * n)
            assert slow.copy_cost(n) == round(20.5 + 0.01 * n)
    # the memo is bookkeeping, not identity
    assert fast == CostModel() and hash(fast) == hash(CostModel())
    assert "memo" not in repr(fast)


def test_replacing_the_cost_model_changes_what_the_next_packet_costs():
    """`host.cost` may be assigned after construction (the robustness
    tests do); the per-size memo lives on the CostModel, so the NIC's
    next cost lookup follows the new model."""
    sim, lan, h1, h2 = make_pair()
    h2.bind(5000, Catcher())
    h1.ip_send(mkskb(length=1000), h2.addr)
    sim.run()
    first = sim.now                         # tx cost + wire + rx cost
    old, h2.cost = h2.cost, CostModel(lower_layer_us=1000)
    start = sim.now
    h1.ip_send(mkskb(length=1000), h2.addr)
    sim.run()
    assert h2.cpu_busy_until == sim.now     # rx completion is the last event
    assert (sim.now - start) - first == \
        h2.cost.rx_cost(1020) - old.rx_cost(1020) == 850


def test_end_to_end_segment_dispatch():
    sim, lan, h1, h2 = make_pair()
    catcher = Catcher()
    h2.bind(5000, catcher)
    h1.ip_send(mkskb(), h2.addr)
    sim.run()
    assert len(catcher.got) == 1
    skb, src = catcher.got[0]
    assert src == h1.addr
    assert skb.length == 1000


def test_unbound_port_counts_unroutable():
    sim, lan, h1, h2 = make_pair()
    h1.ip_send(mkskb(dport=9), h2.addr)
    sim.run()
    assert sim.drops == {"unroutable": 1}


def test_bind_conflict_rejected():
    sim, lan, h1, _ = make_pair()
    h1.bind(5000, Catcher())
    try:
        h1.bind(5000, Catcher())
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_unbind_releases_port():
    sim, lan, h1, _ = make_pair()
    c = Catcher()
    h1.bind(5000, c)
    h1.unbind(5000)
    h1.bind(5000, Catcher())  # no conflict after unbind


def test_cpu_serializes_work():
    sim, lan, h1, _ = make_pair()
    done = []
    h1.cpu_run(100, lambda: done.append(sim.now))
    h1.cpu_run(100, lambda: done.append(sim.now))
    sim.run()
    assert done == [100, 200]


def test_cpu_exec_in_process():
    sim, lan, h1, _ = make_pair()
    marks = []

    def app():
        yield from h1.cpu_exec(500)
        marks.append(sim.now)

    Process(sim, app())
    sim.run()
    assert marks == [500]


def test_cpu_exec_resume_is_the_cpu_completion_event():
    """The process resumes at the instant its CPU work completes --
    queued behind work already on the CPU -- and in the completion
    event's own slot: a same-instant entry scheduled later fires after
    it (and before the completion of a request made from it), and no
    extra engine event is spent on the wake-up."""
    sim, lan, h1, _ = make_pair()
    marks = []

    def app():
        yield from h1.cpu_exec(500)
        marks.append(("app", sim.now))
        yield from h1.cpu_exec(0)
        marks.append(("app-zero", sim.now))

    h1.cpu_run(120, marks.append, ("earlier work", 120))
    Process(sim, app())
    sim.run(until=0)                          # the app has asked for CPU
    assert h1.cpu_busy_until == 620
    sim.call_at(620, marks.append, ("scheduled later", 620))
    sim.run()
    assert marks == [("earlier work", 120), ("app", 620),
                     ("scheduled later", 620), ("app-zero", 620)]
    # start, earlier work, two completions, the probe
    assert sim.events_processed == 5


def test_cpu_exec_is_the_one_request_and_builds_no_generator():
    """`yield from host.cpu_exec(c)` is the only way an application asks
    for CPU time; what it iterates is a plain one-element tuple."""
    import types
    sim, lan, h1, _ = make_pair()
    work = h1.cpu_exec(5)
    assert type(work) is tuple and len(work) == 1
    assert not isinstance(work, types.GeneratorType)
    assert callable(type(work[0])._arm)     # what Process._resume arms
    assert h1.cpu_busy_until == 0           # asking reserves nothing yet


def test_kill_during_cpu_work_is_safe():
    sim, lan, h1, _ = make_pair()
    marks = []

    def app():
        try:
            yield from h1.cpu_exec(500)
            marks.append("never")
        finally:
            marks.append(("unwound", sim.now))

    proc = Process(sim, app())
    sim.call_at(200, proc.kill)
    sim.call_at(1, h1.cpu_run, 10, marks.append,
                "queued behind the dead request")
    sim.run()
    # the CPU time stays spent; the completion finds the process dead
    assert marks == [("unwound", 200), "queued behind the dead request"]
    assert not proc.alive and proc.error is None
    assert sim.now == 510
    proc.kill()                               # idempotent


def test_rx_processing_charges_cpu():
    """Receiving N packets should occupy the receiver CPU serially."""
    sim, lan, h1, h2 = make_pair()
    catcher = Catcher()
    h2.bind(5000, catcher)
    n = 5
    for _ in range(n):
        h1.ip_send(mkskb(length=1000), h2.addr)
    sim.run()
    assert len(catcher.got) == n
    # receiver CPU must have been busy at least n serialized rx costs
    # (packets arrive spaced by wire time, so compare against the cost
    # alone, not wall-clock contiguity)
    assert h2.cost.rx_cost(1020) > 0
    assert h2.cpu_busy_until >= h2.cost.rx_cost(1020)
    assert catcher.got[-1][0].length == 1000


def test_multicast_send_reaches_joined_host():
    sim, lan, h1, h2 = make_pair()
    catcher = Catcher()
    h2.bind(5000, catcher)
    h2.join_group("224.1.0.1")
    h1.ip_send(mkskb(), "224.1.0.1")
    sim.run()
    assert len(catcher.got) == 1


def test_tx_burst_beyond_ring_counts_drops():
    sim, lan, h1, h2 = make_pair()
    h2.bind(5000, Catcher())
    # a zero-cost model makes all sends land on the ring instantly
    for _ in range(h1.nic.tx_ring_cap + 10):
        h1.nic.try_transmit  # noqa: B018 - touch to document intent
    # push more than the ring through ip_send with zero tx cost
    zero = CostModel(per_packet_us=0, per_byte_us=0, lower_layer_us=0)
    sim2 = Simulator()
    lan2 = EthernetLanTopology(sim2, 10e6)
    a = Host(sim2, lan2, lan2.make_nic("10.0.0.1"), cost=zero)
    b = Host(sim2, lan2, lan2.make_nic("10.0.0.2"), cost=zero)
    b.bind(5000, Catcher())
    for _ in range(a.nic.tx_ring_cap + 10):
        a.ip_send(mkskb(), b.addr)
    sim2.run()
    assert a.tx_ring_busy_drops == 10


def test_a_pause_that_moves_the_clock_fails_the_run(monkeypatch):
    """The clock hazard DESIGN §5f planted: a host pause that advances
    ``sim.now`` instead of the host's CPU.  Chaos seed 2 pauses
    receiver 0 mid-transfer; the engine refuses the firing that moved
    its clock, so the run dies instead of finishing on a wrong clock."""
    def planted(self, duration_us):
        self.sim.now += max(0, int(duration_us))

    spec = RunSpec.chaos(3, 10e6, seed=2, horizon_us=1_000_000,
                         nbytes=200_000)
    scenario, kwargs = spec.build()
    assert "host_pause" in scenario.fault_plan.describe()
    assert run_transfer(scenario, **kwargs).ok
    scenario, kwargs = spec.build()
    monkeypatch.setattr(Host, "pause", planted)
    with pytest.raises(SimulationError,
                       match="FaultInjector._pause moved the clock"):
        run_transfer(scenario, **kwargs)
