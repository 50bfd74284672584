"""Causal-lineage tests: determinism, fault pinpointing, pruning.

The two load-bearing properties:

* **determinism** -- the same seed and fault plan must serialize to a
  byte-identical lineage file (the DAG is part of the run's identity,
  and ``hrmc diff`` relies on it),
* **pinpointing** -- for a known injected fault, ``why(seq)`` must walk
  back to the *exact* fault-plan action that caused the drop, not just
  "a loss happened".
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan, NicBurstDrop
from repro.harness.cli import main as cli_main
from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.observer import Observability
from repro.obs.causal import (CauseNode, LineageRecorder, load_lineage,
                              walk_chain)
from repro.trace.tracer import PacketTracer
from repro.workloads.scenarios import build_chaos, build_lan, build_wan

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


def _observed(build, nbytes=200_000, fault_plan=None):
    sc = build()
    if fault_plan is not None:
        sc.fault_plan = fault_plan
    obs = Observability(profile=False, lineage=True)
    res = run_transfer(sc, nbytes=nbytes, sndbuf=128 * 1024,
                       max_sim_s=300, obs=obs)
    return obs, res


class _StubSim:
    """The minimum surface LineageRecorder needs off an engine."""
    now = 0


# -- determinism --------------------------------------------------------

def test_lineage_serialization_is_deterministic(tmp_path):
    """Identical seed + plan => byte-identical saved lineage."""
    build = lambda: build_chaos(3, 10e6, seed=4, horizon_us=1_000_000,
                                allow_crash=False)
    paths = []
    for name in ("a", "b"):
        obs, res = _observed(build, nbytes=250_000)
        assert res.ok
        path = tmp_path / f"{name}.lineage.jsonl"
        obs.lineage.save(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    nodes, meta = load_lineage(str(paths[0]))
    assert len(nodes) == meta["nodes"] > 0


def test_lineage_roundtrip_preserves_chains(tmp_path):
    obs, _ = _observed(lambda: build_wan([LOSSY] * 3, 10e6, seed=21))
    lin = obs.lineage
    path = str(tmp_path / "run.lineage.jsonl")
    lin.save(path)
    loaded, _ = load_lineage(path)
    assert len(loaded) == len(lin.nodes)
    # chains walk identically on the live store and the loaded dict
    drop = lin.drops[0]
    live, live_trunc = lin.chain(drop)
    offline, off_trunc = walk_chain(loaded, loaded[drop.eid])
    assert [n.label() for n in live] == [n.label() for n in offline]
    assert live_trunc == off_trunc


def test_load_lineage_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.lineage.jsonl"
    path.write_text("not json at all {{{\n")
    with pytest.raises(ValueError, match="corrupt lineage file"):
        load_lineage(str(path))


# -- mutation test: why(seq) pinpoints the injected fault ---------------

def test_why_pinpoints_injected_burst_drop():
    """On a loss-free LAN, inject exactly one NIC burst drop; every
    recorded DATA loss must be blamed on precisely that plan action."""
    plan = FaultPlan(seed=0, actions=(
        NicBurstDrop(at_us=60_000, target=0, duration_us=60_000),))
    build = lambda: build_lan(2, 10e6, seed=5)
    obs, res = _observed(build, fault_plan=plan)
    assert res.ok
    lin = obs.lineage
    drops = [d for d in lin.drops if d.blame]
    assert drops, "the burst window dropped no DATA -- widen it"
    diag = obs.diag()
    for drop in drops:
        report = diag.why(drop.seq)
        assert report.found
        root = report.root()
        assert root is not None
        assert root.kind == "fault"
        assert root.what == "nic_burst_drop"
        assert "plan[0]" in root.detail
        # the packet recovered, and the report shows the chain
        assert any(title.startswith("recovery")
                   for title, _ in report.chains), report.render()


def test_why_chain_reaches_loss_on_lossy_wan():
    """Acceptance: on a seeded lossy WAN the chain ends at the concrete
    drop event that triggered recovery."""
    obs, res = _observed(lambda: build_wan([LOSSY] * 3, 10e6, seed=21))
    assert res.ok
    lin = obs.lineage
    assert lin.drops, "seed 21 is known lossy"
    drop = lin.drops[0]
    report = obs.diag().why(drop.seq)
    assert report.found
    assert any(d is drop for d, _ in report.losses)
    rendered = report.render()
    assert f"drop:{drop.what}" in rendered
    # the loss chain walks back to the original transmission
    assert "tx:DATA" in rendered


def test_explain_worst_returns_rooted_reports():
    obs, _ = _observed(lambda: build_wan([LOSSY] * 3, 10e6, seed=21))
    worst = obs.diag().explain_worst(3)
    assert worst
    durations = [span.dur_us for span, _ in worst]
    assert durations == sorted(durations, reverse=True)
    for span, report in worst:
        assert report.found, span.name


def test_why_credits_the_recovery_to_the_receiver_that_lost_the_byte(capsys):
    """Only 10.1.0.2 lost byte 58401; the multicast repair reached all
    three receivers at the same instant, and the recovery shown is the
    one at the receiver that needed it."""
    assert cli_main(["why", "wan", "--receivers", "3", "--nbytes", "200000",
                     "--seed", "21", "--seq", "58401"]) == 0
    out = capsys.readouterr().out
    assert "lost 1 time(s)" in out
    assert "drop:rx_loss(58401+1460)@10.1.0.2" in out
    assert "recovery at t=206484 (10.1.0.2)" in out
    assert "rx:DATA(58401+1460)#2@10.1.0.2" in out


# -- bounded memory -----------------------------------------------------

def test_ring_pruning_bounds_and_pins_faults():
    sim = _StubSim()
    lin = LineageRecorder(sim, max_nodes=1024, max_drops=10)
    fault_eid = lin.emit("fault", "lan", "link_flap", detail="plan[0]")
    parent = 0
    for i in range(5_000):
        sim.now = i
        parent = lin.emit("tx", "10.0.0.1", "DATA", seq=i, end=i + 1,
                          parent=parent, advance=False)
    assert len(lin.nodes) <= 1024
    assert lin.pruned > 0
    # the fault node survives every eviction wave
    assert lin.node(fault_eid) is not None
    # a chain that walks onto a pruned ancestor says so
    chain, truncated = lin.chain(lin.node(parent), max_depth=10_000)
    assert truncated
    # the drop index is independently bounded
    for i in range(50):
        class _Pkt:
            class segment:
                ptype, seq, length, tries = 1, i, 1, 1
            cause = 0
        lin.on_packet(i, "rx_loss", "10.0.0.2", _Pkt())
    assert len(lin.drops) <= 10


def test_walk_chain_survives_cycles():
    a = CauseNode(1, 2, 0, 0, "tx", "h", "DATA", -1, -1, 0, "")
    b = CauseNode(2, 1, 0, 0, "rx", "h", "DATA", -1, -1, 0, "")
    nodes = {1: a, 2: b}
    chain, truncated = walk_chain(nodes, a)
    assert truncated
    assert len(chain) == 2


# -- observability wiring ----------------------------------------------

def test_diag_requires_lineage():
    obs = Observability(profile=False)
    with pytest.raises(RuntimeError):
        obs.diag()


def test_a_second_watch_on_one_run_raises():
    """One run has one watch, as it has one tracer: a second profiled
    or lineage-tracing observer is refused, since it would take the
    engine's events from the first, which would then report none."""
    sc = build_lan(2, 10e6, seed=5)
    tracer = PacketTracer().attach(sc.sender, *sc.receivers)
    first = Observability(profile=True).attach(sc, tracer)
    for second in (Observability(profile=True),
                   Observability(lineage=True)):
        with pytest.raises(RuntimeError, match="already has a watch"):
            second.attach(sc, tracer)
        assert not second.attached
    assert sc.sim.watch is first.profiler
    Observability().attach(sc, tracer)      # no watch: no conflict
    for t in (10, 20):
        sc.sim.call_at(t, lambda: None)
    sc.sim.run()
    assert first.profiler.events == sc.sim.events_processed == 2

