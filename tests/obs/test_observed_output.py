"""What an observed run reports is pinned, not eyeballed.

The observation path may get cheaper; what it reports may not change.
`PINNED_OUTPUT` holds, for two of the pinned transfers of
tests/harness/test_pinned_stats.py, the sha256 of everything an
observed run renders that does not read a wall clock: the text summary
up to its `profiler:` table, the series JSONL and the Perfetto trace.
`lan-2` is the loss-free shape; `wan-case-3` has NAKs, retransmissions,
recovery spans and bursts, so every branch of the span collector
writes into those bytes.  Recorded at the last commit that built a
`TraceEvent` per tapped packet and handed it to the collector; the two
summary hashes were re-pinned when histogram percentiles were clamped
to the observed maximum (only the p50 and p90 columns moved).

Re-pin only for a change that is meant to alter a report, from the
repo root:

    PYTHONPATH=src:. python -c "from tests.obs.test_observed_output \\
        import observed_output; print(observed_output('wan-case-3', '/tmp'))"
"""

import hashlib

import pytest

from repro.core.types import FIN, PacketType
from repro.harness.runner import run_transfer
from repro.kernel.skbuff import SKBuff
from repro.net.packet import NetPacket
from repro.obs.observer import Observability
from repro.obs.spans import SpanCollector
from tests.harness.test_pinned_stats import PINNED, SEED

#: name -> (summary up to "profiler:", series JSONL, Perfetto JSON)
PINNED_OUTPUT = {
    "lan-2": (
        "c325a385ef15db3b401e0598229e19c63640956ef98461f0bc5821ebca641d6f",
        "e9609e196af81cbd548fda04cc2cb149e1721d5d9564509fb1846955188fcf04",
        "7e653d4ed815d74c432f89f57f9706a823fd706aba889999b5632ef6daecf37e"),
    "wan-case-3": (
        "00defea27e86b126dc7fd6c8328f42367f57957dd10d31fee3637891a7d217fc",
        "925f8d6f1bda034c46f42f5dfa0b5244a7501cf0eaaba09d6ad2f3f8601e0a69",
        "0e1120be14712a3efdcfb1a86d843ad952ae31c7e0561bfaa8ab517045b2a9ce"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observed_output(name, outdir):
    """The three hashes of `PINNED_OUTPUT` for one observed run, whose
    artifacts are written under `outdir`."""
    build, kwargs = PINNED[name][:2]
    obs = Observability(profile=True)
    result = run_transfer(build(), seed=SEED, obs=obs, **kwargs)
    assert result.ok
    paths = obs.write_artifacts(str(outdir), prefix=name)
    stable = obs.summary().split("\nprofiler:", 1)[0]
    assert stable != obs.summary()          # the profiler table was there
    with open(paths["series_jsonl"], "rb") as series, \
            open(paths["perfetto"], "rb") as perfetto:
        return (_sha(stable.encode()), _sha(series.read()),
                _sha(perfetto.read()))


@pytest.mark.parametrize("name", PINNED_OUTPUT)
def test_observed_output_is_pinned(name, tmp_path):
    assert observed_output(name, tmp_path) == PINNED_OUTPUT[name]


# -- the collector's common case against its uncommon states -----------------

SENDER, RCV = "10.0.0.1", "10.0.0.2"
MSS = 1000


def _skb(ptype, seq=0, length=0, tries=1, flags=0, wire_us=-1):
    skb = SKBuff(sport=1, dport=2, seq=seq, ptype=ptype, length=length,
                 tries=tries, flags=flags)
    skb.last_sent_us = wire_us
    return skb


def _pkt(skb):
    return NetPacket("", "", skb, 20 + skb.length)


def _data_stream(n):
    """`n` DATA segments as seam facts `(now, fact, where, pkt)`:
    enqueued every 100 us, on the wire 30 us later, at the receiver
    250 us after enqueue."""
    packets = []
    for i in range(n):
        t = 1_000 + 100 * i
        skb = _skb(PacketType.DATA, seq=i * MSS, length=MSS, wire_us=t + 30)
        packets.append((t, "tx", SENDER, _pkt(skb)))
        packets.append((t + 250, "rx", RCV, _pkt(skb)))
    return sorted(packets, key=lambda p: p[0])


def _replay(packets):
    collector = SpanCollector(SENDER)
    for packet in packets:
        collector.on_packet(*packet)
    collector.finalize(packets[-1][0])
    return collector


def _hist(h):
    return (h.count, h.total, h.min, h.max, tuple(h.counts))


def test_loss_free_stream_by_hand():
    c = _replay(_data_stream(8))
    assert _hist(c.one_way_us)[:4] == (8, 8 * 250.0, 250, 250)
    assert _hist(c.queueing_us)[:4] == (8, 8 * 30.0, 30, 30)
    assert c.recovery_us.count == 0 and c.marks == []
    [transfer] = c.spans
    assert (transfer.name, transfer.host, transfer.start_us,
            transfer.end_us) == ("transfer", RCV, 1_250, 1_950)


def test_uncommon_states_do_not_move_what_a_data_arrival_records():
    """The same DATA arrivals with the receiver in every state the
    loss-free case tests for and skips -- a join still open, NAKs
    outstanding, the FIN segment -- record the same latencies and the
    same transfer span; the other events add only their own spans and
    marks."""
    quiet, busy = _data_stream(8), _data_stream(8)
    # a join the first DATA arrival closes
    busy.append((900, "tx", RCV, _pkt(_skb(PacketType.JOIN))))
    # segment 3 is NAKed before it arrives (the "repair" is its first
    # copy), and so is a range nothing here ever covers, which keeps
    # NAKs outstanding for every later arrival until NAK_ERR refuses it
    busy.append((1_500, "tx", RCV,
                 _pkt(_skb(PacketType.NAK, seq=3 * MSS, length=MSS))))
    busy.append((1_540, "tx", RCV,
                 _pkt(_skb(PacketType.NAK, seq=90 * MSS, length=MSS))))
    busy.append((1_900, "rx", RCV,
                 _pkt(_skb(PacketType.NAK_ERR, seq=100 * MSS))))
    busy.append((1_905, "tx", RCV, _pkt(_skb(PacketType.UPDATE))))
    busy.sort(key=lambda p: p[0])
    # the last segment carries FIN; the receiver then leaves
    busy[-1][3].segment.flags = FIN
    busy.append((2_100, "tx", RCV, _pkt(_skb(PacketType.LEAVE))))

    a, b = _replay(quiet), _replay(busy)
    assert _hist(a.one_way_us) == _hist(b.one_way_us)
    assert _hist(a.queueing_us) == _hist(b.queueing_us)
    [transfer_a] = [s for s in a.spans if s.name == "transfer"]
    [transfer_b] = [s for s in b.spans if s.name == "transfer"]
    assert transfer_a == transfer_b

    # ... and the uncommon states did what they are there for
    spans = {s.name: (s.cat, s.start_us, s.end_us) for s in b.spans}
    assert spans == {
        "join": ("phase", 900, 1_250),
        "transfer": ("phase", 1_250, 1_950),
        "recovery-burst": ("phase", 1_500, 1_900),
        f"repair@{3 * MSS}": ("recovery", 1_500, 1_550),
        "close": ("phase", 1_950, 2_100),
    }
    assert _hist(b.recovery_us)[:4] == (1, 50.0, 50, 50)
    assert [(m.name, m.t_us) for m in b.marks] == [
        ("nak", 1_500), ("nak", 1_540), ("update", 1_905)]


def test_enqueue_times_are_evicted_oldest_first(monkeypatch):
    """Past TX_CAP outstanding segments the oldest enqueue time goes:
    its late arrival records nothing, a younger one still does."""
    monkeypatch.setattr(SpanCollector, "TX_CAP", 4)
    c = SpanCollector(SENDER)
    skbs = [_skb(PacketType.DATA, seq=i * MSS, length=MSS) for i in range(6)]
    for i, skb in enumerate(skbs):
        c.on_packet(100 + i, "tx", SENDER, _pkt(skb))
    assert list(c._tx) == [(i * MSS, 1) for i in (2, 3, 4, 5)]
    c.on_packet(500, "rx", RCV, _pkt(skbs[0]))
    assert c.one_way_us.count == 0
    c.on_packet(501, "rx", RCV, _pkt(skbs[2]))
    assert _hist(c.one_way_us)[:4] == (1, 399.0, 399, 399)
