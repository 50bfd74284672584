"""Tests for packet tracing and the saved capture format."""

import json
from collections import Counter

import pytest

from repro.core.types import PacketType
from repro.harness.runner import run_transfer
from repro.kernel.skbuff import SKBuff
from repro.trace.tracer import PacketTracer, TraceEvent
from repro.net.topology import GroupSpec
from repro.workloads.groups import GROUP_B
from repro.workloads.scenarios import build_lan, build_wan


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _records(path):
    """The saved event records, checked to carry exactly the
    TraceEvent fields in order (the ``_meta`` line left out)."""
    records = [r for r in _lines(path) if "_meta" not in r]
    assert all(list(r) == list(TraceEvent._fields) for r in records)
    return records


@pytest.fixture(scope="module")
def traced_run():
    sc = build_wan([GROUP_B] * 3, 10e6, seed=60)
    tracer = PacketTracer().attach(sc.sender, *sc.receivers)
    res = run_transfer(sc, nbytes=300_000, sndbuf=256 * 1024,
                       max_sim_s=300)
    tracer.detach()
    return sc, tracer, res


def test_capture_sees_both_directions(traced_run):
    sc, tracer, res = traced_run
    assert res.ok
    dirs = {e.direction for e in tracer.events}
    assert dirs == {"tx", "rx"}
    hosts = {e.host for e in tracer.events}
    assert sc.sender.addr in hosts
    assert len(hosts) == 4


def test_tx_rx_conservation(traced_run):
    """Every DATA rx at a receiver corresponds to some sender tx."""
    sc, tracer, res = traced_run
    tx_data = [e for e in tracer.events
               if e.host == sc.sender.addr and e.direction == "tx"
               and e.ptype == int(PacketType.DATA)]
    rx_data = [e for e in tracer.events
               if e.direction == "rx" and e.ptype == int(PacketType.DATA)]
    assert tx_data
    # 3 receivers, some loss: rx count is bounded by 3x tx count
    assert len(rx_data) <= 3 * len(tx_data)
    tx_seqs = {e.seq for e in tx_data}
    assert all(e.seq in tx_seqs for e in rx_data)


def test_save_and_load_roundtrip(tmp_path, traced_run):
    _, tracer, _ = traced_run
    path = tmp_path / "capture.jsonl"
    n = tracer.save(str(path))
    assert n == len(tracer.events)
    assert [TraceEvent(**r) for r in _records(path)] == tracer.events


def test_double_attach_rejected():
    sc = build_lan(1, 10e6, seed=62)
    PacketTracer().attach(sc.sender)
    with pytest.raises(RuntimeError):
        PacketTracer().attach(sc.sender)


def test_trace_event_helpers():
    ev = _mk_event(t_us=1, seq=1)
    assert ev.type_name == "DATA"
    assert ev._replace(ptype=int(PacketType.NAK)).type_name == "NAK"
    # a type outside the H-RMC set (a baseline's) still prints
    assert ev._replace(ptype=99).type_name == "type99"


# -- flight-recorder (ring) edge cases --------------------------------------

def _mk_event(t_us, seq, host="h1", direction="tx"):
    return TraceEvent(t_us=t_us, host=host, direction=direction, peer="p",
                      ptype=int(PacketType.DATA), seq=seq, length=10,
                      rate_adv=0, tries=1, flags=0)


def test_ring_save_is_time_ordered_with_meta(tmp_path):
    """A truncated ring capture saves time-ordered events behind a
    _meta line that records the loss."""
    tracer = PacketTracer(ring=5)
    for i in range(12):
        tracer.events.append(_mk_event(t_us=100 + i, seq=i))
    tracer.dropped = 7
    path = tmp_path / "ring.jsonl"
    n = tracer.save(str(path))
    assert n == 5
    lines = _lines(path)
    assert lines[0] == {"_meta": {"truncated": True, "ring": True,
                                  "dropped": 7}}
    back = _records(path)
    assert len(back) == len(lines) - 1
    assert [r["t_us"] for r in back] == sorted(r["t_us"] for r in back)
    assert [r["seq"] for r in back] == [7, 8, 9, 10, 11]


def test_ring_capture_counts_evictions():
    sc = build_lan(1, 10e6, seed=63)
    tracer = PacketTracer(ring=8).attach(sc.sender)
    run_transfer(sc, nbytes=100_000, sndbuf=64 * 1024)
    assert len(tracer.events) == 8
    assert tracer.dropped > 0
    # flight recorder keeps the most recent events, not the oldest
    all_ts = [e.t_us for e in tracer.events]
    assert all_ts == sorted(all_ts)


def test_ring_run_save_load_analyzer(tmp_path):
    """End to end: a truncated live capture saves the window it kept,
    time-ordered, behind the _meta line, even though the first events
    of the run are missing."""
    sc = build_lan(2, 10e6, seed=64)
    tracer = PacketTracer(ring=32)
    res = run_transfer(sc, nbytes=200_000, sndbuf=64 * 1024,
                       tracer=tracer)
    assert res.ok and tracer.dropped > 0
    path = tmp_path / "flight.jsonl"
    tracer.save(str(path))
    assert _lines(path)[0]["_meta"]["dropped"] == tracer.dropped
    back = [TraceEvent(**r) for r in _records(path)]
    assert len(back) == 32
    assert back == sorted(tracer.events, key=lambda e: e.t_us)


def test_complete_capture_has_no_meta(tmp_path):
    tracer = PacketTracer()
    tracer.events.append(_mk_event(t_us=1, seq=0))
    path = tmp_path / "ok.jsonl"
    tracer.save(str(path))
    assert all("_meta" not in r for r in _lines(path))
    assert len(_records(path)) == 1


# -- the seam and its consumers -----------------------------------------------

def test_saved_record_format_is_pinned(tmp_path):
    """One JSON object per event, fields in record order.  Reading the
    records back and saving them again reproduces the bytes."""
    tracer = PacketTracer()
    tracer.events.append(_mk_event(t_us=5, seq=3))
    first = tmp_path / "a.jsonl"
    tracer.save(str(first))
    assert first.read_text() == (
        '{"t_us":5,"host":"h1","direction":"tx","peer":"p","ptype":1,'
        '"seq":3,"length":10,"rate_adv":0,"tries":1,"flags":0}\n')
    again = PacketTracer()
    again.events.extend(TraceEvent(**r) for r in _records(first))
    second = tmp_path / "b.jsonl"
    again.save(str(second))
    assert second.read_bytes() == first.read_bytes()
    assert repr(again.events[0]) == (
        "TraceEvent(t_us=5, host='h1', direction='tx', peer='p', ptype=1, "
        "seq=3, length=10, rate_adv=0, tries=1, flags=0)")


def test_subscribers_see_every_drop_and_the_attached_hosts_traffic():
    """The seam hands subscribers each tx/rx at the attached hosts, in
    the order the capture records them, and every drop anywhere in the
    fabric, once."""
    lossy = GroupSpec("L", delay_us=20_000, loss_rate=0.02)
    sc = build_wan([lossy] * 3, 10e6, seed=7)
    tracer = PacketTracer().attach(sc.sender, sc.receivers[0])
    facts = []
    tracer.subscribe(lambda *fact: facts.append(fact))
    res = run_transfer(sc, nbytes=300_000, sndbuf=256 * 1024,
                       max_sim_s=300)
    assert res.ok
    traffic = [(now, where, fact, pkt.segment.seq, pkt.segment.length)
               for now, fact, where, pkt in facts if fact in ("tx", "rx")]
    assert traffic == [(e.t_us, e.host, e.direction, e.seq, e.length)
                       for e in tracer.events]
    assert {e.host for e in tracer.events} == \
        {sc.sender.addr, sc.receivers[0].addr}
    drops = Counter(fact for _, fact, *_ in facts
                    if fact not in ("tx", "rx"))
    assert drops
    assert drops == sc.sim.drops


def test_a_frame_nobody_is_there_for_is_one_drop():
    """A unicast to a port no socket is bound to is received, then
    dropped as ``unroutable``; a multicast a router has no subscribed
    pipe for is dropped there as ``no_route``.  Each reaches a
    subscriber once and the run's drop ledger once."""
    sc = build_wan([GROUP_B], 10e6, seed=61)
    tracer = PacketTracer().attach(*sc.receivers)
    facts = []
    tracer.subscribe(lambda *fact: facts.append(fact))
    [rcv] = sc.receivers
    sc.sender.ip_send(SKBuff(sport=9, dport=9, seq=1, ptype=0), rcv.addr)
    sc.sender.ip_send(SKBuff(sport=9, dport=9, seq=2, ptype=0), sc.group_addr)
    sc.sim.run()
    seen = [(fact, where, pkt.segment.seq) for _, fact, where, pkt in facts]
    assert seen == [("no_route", "backbone", 2),
                    ("rx", rcv.addr, 1), ("unroutable", rcv.addr, 1)]
    assert sc.sim.drops == {"unroutable": 1, "no_route": 1}


def test_a_record_is_built_only_for_a_reader(monkeypatch):
    """The capture builds one TraceEvent per tx or rx at an attached
    host, and none for a drop, which only its subscribers see."""
    from repro.trace import tracer as tracer_module
    built = []

    def counted(*fields):
        built.append(fields)
        return TraceEvent(*fields)

    monkeypatch.setattr(tracer_module, "TraceEvent", counted)
    sc = build_lan(1, 10e6, seed=65)
    tracer = PacketTracer().attach(sc.sender, *sc.receivers)
    seen = []
    tracer.subscribe(lambda *facts: seen.append(facts))
    res = run_transfer(sc, nbytes=20_000, sndbuf=64 * 1024)
    traffic = [facts for facts in seen if facts[1] in ("tx", "rx")]
    assert res.ok and traffic
    assert len(built) == len(tracer.events) == len(traffic)
    pkt = traffic[0][3]
    sc.sim.tap("rx_loss", sc.sender.addr, pkt)
    assert len(built) == len(traffic) and seen[-1][1] == "rx_loss"
    sc.sim.tap("tx", sc.sender.addr, pkt)
    assert len(built) == len(tracer.events) == len(traffic) + 1
    tracer.detach()
    assert sc.sim.tap is None
