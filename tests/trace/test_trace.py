"""Tests for packet tracing and analysis."""

import numpy as np
import pytest

from repro.core.types import PacketType
from repro.harness.runner import run_transfer
from repro.trace.analyzer import (feedback_latency, packet_summary,
                                  sequence_progress, sparkline,
                                  throughput_timeline)
from repro.trace.tracer import PacketTracer, TraceEvent, load_trace
from repro.net.topology import GroupSpec
from repro.workloads.groups import GROUP_B
from repro.workloads.scenarios import build_lan, build_wan


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
    tx_data = [e for e in tracer.at_host(sc.sender.addr)
               if e.direction == "tx" and e.ptype == int(PacketType.DATA)]
    rx_data = [e for e in tracer.events
               if e.direction == "rx" and e.ptype == int(PacketType.DATA)]
    assert tx_data
    # 3 receivers, some loss: rx count is bounded by 3x tx count
    assert len(rx_data) <= 3 * len(tx_data)
    tx_seqs = {e.seq for e in tx_data}
    assert all(e.seq in tx_seqs for e in rx_data)


def test_packet_summary_structure(traced_run):
    _, tracer, _ = traced_run
    summary = packet_summary(tracer.events)
    assert "DATA" in summary
    assert summary["DATA"]["count"] > 0
    assert summary["DATA"]["bytes"] >= 300_000
    retr = summary["_retransmissions"]
    assert 0 <= retr["ratio"] < 1


def test_throughput_timeline_accounts_all_bytes(traced_run):
    sc, tracer, _ = traced_run
    rcv = sc.receivers[0].addr
    times, rate = throughput_timeline(tracer.events, host=rcv,
                                      bucket_us=100_000)
    assert len(times) == len(rate)
    total = float((rate * 0.1).sum())
    got = sum(e.length for e in tracer.at_host(rcv)
              if e.direction == "rx" and e.ptype == int(PacketType.DATA))
    assert total == pytest.approx(got, rel=1e-6)


def test_sequence_progress_monotone(traced_run):
    sc, tracer, _ = traced_run
    t, seqs = sequence_progress(tracer.events, sc.receivers[0].addr)
    assert len(t) == len(seqs) > 0
    assert np.all(np.diff(seqs) > 0)
    assert np.all(np.diff(t) >= 0)
    assert seqs[-1] >= 300_000


def test_feedback_latency_measured_under_loss():
    # standalone lossy run (2% per receiver) so NAKs are guaranteed,
    # independent of what the shared fixture's seed happens to drop
    lossy = GroupSpec("L", delay_us=20_000, loss_rate=0.02)
    sc = build_wan([lossy] * 3, 10e6, seed=7)
    tracer = PacketTracer().attach(sc.sender, *sc.receivers)
    res = run_transfer(sc, nbytes=300_000, sndbuf=256 * 1024,
                       max_sim_s=300)
    tracer.detach()
    assert res.ok
    assert res.sender_stats.naks_rcvd > 0
    lat = feedback_latency(tracer.events, sender=sc.sender.addr)
    assert lat["samples"] > 0
    assert 0 <= lat["mean_us"] <= lat["max_us"]


def test_save_and_load_roundtrip(tmp_path, traced_run):
    _, tracer, _ = traced_run
    path = tmp_path / "capture.jsonl"
    n = tracer.save(str(path))
    assert n == len(tracer.events)
    back = load_trace(str(path))
    assert back == tracer.events


def test_max_events_cap():
    sc = build_lan(1, 10e6, seed=61)
    tracer = PacketTracer(max_events=10).attach(sc.sender)
    run_transfer(sc, nbytes=100_000, sndbuf=64 * 1024)
    assert len(tracer.events) == 10
    assert tracer.dropped > 0


def test_double_attach_rejected():
    sc = build_lan(1, 10e6, seed=62)
    PacketTracer().attach(sc.sender)
    with pytest.raises(RuntimeError):
        PacketTracer().attach(sc.sender)


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1, 1, 1]) == "▁▁▁"
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(range(1000), width=40)) == 40


def test_trace_event_helpers():
    ev = TraceEvent(t_us=1, host="h", direction="tx", peer="p",
                    ptype=int(PacketType.DATA), seq=1, length=10,
                    rate_adv=0, tries=2, flags=0)
    assert ev.type_name == "DATA"
    assert ev.is_retransmission
    ev2 = TraceEvent(t_us=1, host="h", direction="tx", peer="p",
                     ptype=int(PacketType.NAK), seq=1, length=10,
                     rate_adv=0, tries=5, flags=0)
    assert not ev2.is_retransmission


# -- flight-recorder (ring) edge cases --------------------------------------

def _mk_event(t_us, seq, host="h1", direction="tx"):
    return TraceEvent(t_us=t_us, host=host, direction=direction, peer="p",
                      ptype=int(PacketType.DATA), seq=seq, length=10,
                      rate_adv=0, tries=1, flags=0)


def test_ring_save_is_time_ordered_with_meta(tmp_path):
    """A truncated ring capture saves time-ordered events behind a
    _meta line that records the loss."""
    from repro.trace.tracer import trace_meta
    tracer = PacketTracer(max_events=5, ring=True)
    for i in range(12):
        tracer.events.append(_mk_event(t_us=100 + i, seq=i))
    tracer.dropped = 7
    path = tmp_path / "ring.jsonl"
    n = tracer.save(str(path))
    assert n == 5
    meta = trace_meta(str(path))
    assert meta == {"truncated": True, "ring": True, "dropped": 7}
    back = load_trace(str(path))
    assert [e.t_us for e in back] == sorted(e.t_us for e in back)
    assert [e.seq for e in back] == [7, 8, 9, 10, 11]


def test_ring_capture_counts_evictions():
    sc = build_lan(1, 10e6, seed=63)
    tracer = PacketTracer(max_events=8, ring=True).attach(sc.sender)
    run_transfer(sc, nbytes=100_000, sndbuf=64 * 1024)
    assert len(tracer.events) == 8
    assert tracer.dropped > 0
    # flight recorder keeps the most recent events, not the oldest
    all_ts = [e.t_us for e in tracer.events]
    assert all_ts == sorted(all_ts)


def test_ring_run_save_load_analyzer(tmp_path):
    """End to end: a truncated live capture saves, loads and analyzes
    even though the first events of the run are missing."""
    from repro.trace.tracer import trace_meta
    sc = build_lan(2, 10e6, seed=64)
    tracer = PacketTracer(max_events=32, ring=True)
    res = run_transfer(sc, nbytes=200_000, sndbuf=64 * 1024,
                       tracer=tracer)
    assert res.ok and tracer.dropped > 0
    path = tmp_path / "flight.jsonl"
    tracer.save(str(path))
    assert trace_meta(str(path))["dropped"] == tracer.dropped
    back = load_trace(str(path))
    assert len(back) == 32
    # the analyzers run on the partial window (tx-side summary counts
    # whatever tx events survived; progress is monotone regardless)
    summary = packet_summary(back)
    assert sum(v["count"] for k, v in summary.items()
               if not k.startswith("_")) <= 32
    rcv = sc.receivers[0].addr
    t, seqs = sequence_progress(back, rcv)
    assert np.all(np.diff(seqs) > 0)
    assert np.all(np.diff(t) >= 0)


def test_complete_capture_has_no_meta(tmp_path):
    from repro.trace.tracer import trace_meta
    tracer = PacketTracer()
    tracer.events.append(_mk_event(t_us=1, seq=0))
    path = tmp_path / "ok.jsonl"
    tracer.save(str(path))
    assert trace_meta(str(path)) is None


def test_load_trace_ignores_unknown_fields(tmp_path):
    """Forward compatibility: newer writers may add fields."""
    import json
    path = tmp_path / "future.jsonl"
    rec = {"t_us": 5, "host": "h", "direction": "rx", "peer": "p",
           "ptype": 1, "seq": 0, "length": 4, "rate_adv": 0, "tries": 1,
           "flags": 0, "new_field": "ignored"}
    path.write_text(json.dumps(rec) + "\n")
    back = load_trace(str(path))
    assert len(back) == 1 and back[0].t_us == 5


def test_load_trace_sorts_out_of_order_records(tmp_path):
    path = tmp_path / "shuffled.jsonl"
    import json
    evs = [_mk_event(t_us=t, seq=t) for t in (30, 10, 20)]
    path.write_text("\n".join(json.dumps(e._asdict()) for e in evs) + "\n")
    back = load_trace(str(path))
    assert [e.t_us for e in back] == [10, 20, 30]


def test_load_capture_surfaces_truncation(tmp_path):
    """The analyzer consumes the _meta record explicitly: a truncated
    capture is flagged in packet_summary output, a complete one is not."""
    from repro.trace.analyzer import load_capture
    tracer = PacketTracer(max_events=5, ring=True)
    for i in range(12):
        tracer.events.append(_mk_event(t_us=100 + i, seq=i))
    tracer.dropped = 7
    path = tmp_path / "ring.jsonl"
    tracer.save(str(path))

    events, meta = load_capture(str(path))
    assert len(events) == 5
    assert meta == {"truncated": True, "ring": True, "dropped": 7}
    summary = packet_summary(events, meta)
    assert summary["_capture"] == {"truncated": True, "dropped": 7,
                                   "ring": True}

    # a complete capture carries no _capture entry
    full = PacketTracer()
    full.events.append(_mk_event(t_us=1, seq=0))
    ok_path = tmp_path / "ok.jsonl"
    full.save(str(ok_path))
    events, meta = load_capture(str(ok_path))
    assert meta is None
    assert "_capture" not in packet_summary(events, meta)


# -- the seam and its consumers -----------------------------------------------

def test_saved_record_format_is_pinned(tmp_path):
    """One JSON object per event, fields in record order: the bytes the
    saved artifacts and `hrmc diff` hold.  Loading and saving again
    reproduces them."""
    tracer = PacketTracer()
    tracer.events.append(_mk_event(t_us=5, seq=3))
    first = tmp_path / "a.jsonl"
    tracer.save(str(first))
    assert first.read_text() == (
        '{"t_us":5,"host":"h1","direction":"tx","peer":"p","ptype":1,'
        '"seq":3,"length":10,"rate_adv":0,"tries":1,"flags":0}\n')
    again = PacketTracer()
    again.events.extend(load_trace(str(first)))
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
    drops = [fact for _, fact, *_ in facts if fact not in ("tx", "rx")]
    counted = ("router_loss", "pipe_loss", "pipe_queue", "nic_rx_ring",
               "nic_rx_loss")
    assert drops
    assert len(drops) == sum(res.drop_summary[k] for k in counted)


def test_a_record_is_built_only_for_a_reader(monkeypatch):
    """A tracer that keeps nothing hands its subscribers the facts and
    never builds a TraceEvent; every tx/rx still counts as one the
    capture lost."""
    from repro.trace import tracer as tracer_module

    def no_record(*fields):
        raise AssertionError("a TraceEvent was built for nobody")

    sc = build_lan(1, 10e6, seed=65)
    tracer = PacketTracer(max_events=0).attach(sc.sender, *sc.receivers)
    seen = []
    tracer.subscribe(lambda *facts: seen.append(facts))
    monkeypatch.setattr(tracer_module, "TraceEvent", no_record)
    res = run_transfer(sc, nbytes=20_000, sndbuf=64 * 1024)
    assert res.ok and seen
    assert len(tracer.events) == 0 and tracer.dropped == len(seen)
    # a capture that keeps records builds one per tx/rx, never per drop
    tracer.detach()
    assert sc.sim.tap is None
    PacketTracer(max_events=1).attach(sc.sender)
    pkt = seen[0][3]
    sc.sim.tap("rx_loss", sc.sender.addr, pkt)
    with pytest.raises(AssertionError, match="built for nobody"):
        sc.sim.tap("tx", sc.sender.addr, pkt)
