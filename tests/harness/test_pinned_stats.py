"""The engine may get cheaper; the simulation may not change.

Small transfers, one per regime the benchmark times (bench/): each
one's counters, duration, drops and packet history are pinned by hash
to the values recorded at the last commit that scheduled one event per
attached NIC and woke CPU-bound processes through a throw-away
SimEvent.  `sim_events` is deliberately not part of any hash -- it is
the number engine work is allowed to lower -- and is instead held
under a ceiling per packet the sender put on the wire, which catches
event inflation without looking at a clock.  The ACK, polling and
TCP-like baselines are pinned on `wan-case-3`'s world as well
(`wan-case-3-<protocol>`), so a change to their shared transport shows
which of them it moved.  `lan-2-crash-rejoin` crashes a receiver while
its application holds the socket lock for a copy, with a packet on the
backlog, and restarts it: an application that left the lock held when
killed would never deliver that packet, and the statistics hash would
move.

The packet history is hashed per instant and host: every event, its
timestamp and each host's own order of events are pinned; the order in
which *different* hosts' events of one microsecond reach the tracer is
not.  A process now resumes in its CPU-completion event's slot rather
than behind the entries already queued for that instant, so two hosts
acting in the same microsecond can be traced in the other order
(`lan-2-long` has four such pairs among 6597 events; the other runs
are identical in raw order too).

Re-pinning is for a change that is *meant* to alter protocol behaviour,
and only for the runs it is meant to alter.  `wan-case-3` was
regenerated when the receiver stopped NAKing data it had parked out of
order (1 568 -> 42 NAKs at the sender, 86 -> 3 retransmissions; the
four loss-free runs have no out-of-order arrival and kept their
values).  Recipe, from the repo root:

    PYTHONPATH=src:. python -c "from tests.harness.test_pinned_stats \
        import measure; print(*measure('wan-case-3'), sep='\n')"

prints duration_us, the two hashes and events per packet; copy the
first three into `PINNED` and set the ceiling ~1.5 % above the fourth.

The same runs hold the host-side cost of a packet without a clock:
`CALLS_PER_PACKET` is a ceiling on the function calls (Python and C, as
cProfile counts them) one bare run makes per packet the sender put on
the wire.  The count repeats exactly, does not depend on
PYTHONHASHSEED, and moves by under 0.5 % between CPython 3.10 and 3.13
(comprehension inlining), so one number serves the CI matrix:

    PYTHONPATH=src:. python -c "from tests.harness.test_pinned_stats \
        import PINNED, calls_per_packet; \
        [print(n, round(calls_per_packet(n), 1)) for n in PINNED]"

A change that lowers a count lowers its ceiling to ~3 % above the new
value; one that raises a count past its ceiling has put work back on
the per-packet path and says why, or is reverted.

`OBSERVED_CALLS_PER_PACKET` is the same count with an observer
attached -- what watching a run costs, without a clock (it replaced a
CI gate on the ratio of two host timings):

    PYTHONPATH=src:. python -c "from tests.harness.test_pinned_stats \
        import OBSERVED_CALLS_PER_PACKET as O, calls_per_packet; \
        [print(n, i, round(calls_per_packet(n, i), 1)) \
         for n in O for i in O[n]]"

Loss recovery is held to its complexity the same way, by call counts
of one step against a small and a large state: an out-of-order arrival
costs the same with 10 or 1 000 segments parked, a NAK served against a
1 000-skb write queue costs a bisection more than against 10 skbs, and
the worst RTT is read without a call.
"""

import cProfile
import hashlib
import json
import pstats

import pytest

from repro.core.types import PacketType
from repro.faults.plan import FaultPlan, ReceiverCrash
from repro.harness.runner import run_transfer
from repro.kernel.payload import PatternPayload
from repro.kernel.skbuff import SKBuff
from repro.obs.profiler import Observability
from repro.sim.engine import Simulator
from repro.trace.tracer import PacketTracer
from repro.workloads import build_lan, build_wan, expand_test_case

from tests.core.conftest import FakeHost, make_receiver, make_sender

SEED = 7


def _lan_2_crash_rejoin():
    """`lan-2`'s world with receiver 1 crashed at an instant when its
    application is copying to user space with a packet waiting on the
    socket backlog, and restarted 40 ms later to rejoin mid-stream."""
    scenario = build_lan(2, 100e6, seed=SEED)
    scenario.fault_plan = FaultPlan(seed=SEED, actions=(
        ReceiverCrash(at_us=150_575, target=1, restart_at_us=190_575),))
    return scenario

#: name -> (scenario factory, run_transfer kwargs, duration_us,
#:          sha256 of the statistics, sha256 of the packet history,
#:          ceiling on sim events per packet sent)
PINNED = {
    "lan-2": (
        lambda: build_lan(2, 100e6, seed=SEED),
        dict(nbytes=2_000_000, sndbuf=512 * 1024), 358_097,
        "822bd76723e60874b2633193d1ad7816bd2a8261532dede1d2c4df494a47a491",
        "036c2c2822e25bc93d6956ac526154bb965cd9a18360f6b73f70c5f0846bb85e",
        7.6),                       # 7.50 today; 10.62 before
    "lan-2-long": (
        lambda: build_lan(2, 100e6, seed=SEED),
        dict(nbytes=3_000_000, sndbuf=512 * 1024), 508_253,
        "db8c93e69358dee33ca282d3b15526a6f6ba56d1aa99ffcd79c2055a26887c89",
        "5432b74d915da41e295f8ee391ab839cb7ad91dc001a0b5f51d54e0f8e90142f",
        7.6),                       # 7.51 today; 10.64 before
    "lan-40": (
        lambda: build_lan(40, 100e6, seed=SEED),
        dict(nbytes=200_000, sndbuf=512 * 1024), 84_417,
        "d696d9ed64cd388a832dcc3302d00ea5db47b594e9358fba45c5048b9ec11179",
        "547f08011b253780d06f8aa958a5aefab8613de7a73c6a73589e663aa2c6a89a",
        94.0),                      # 92.68 today; 238.76 before
    "wan-case-3": (
        lambda: build_wan(expand_test_case(3, 10), 10e6, seed=SEED),
        dict(nbytes=300_000, sndbuf=256 * 1024), 2_296_445,
        "acfb1ad7491471cfdb655d6432ccd9dd12be19491529f15cae17e10e81f13070",
        "3579583ca30448b1dc9ae9fb8641f06b74615a6612736db0e2cc306e8c5387a9",
        48.0),                      # 47.21 today; 83.28 NAKing parked data
    "lan-disk": (
        lambda: build_lan(3, 10e6, seed=SEED),
        dict(nbytes=1_500_000, sndbuf=64 * 1024, disk=True), 1_630_474,
        "d912bbfe6bab357fcda733c394e1d31f915b0d2fde9c4220b042df01f8a2a453",
        "d6f6aa92dd0ebd9afaba33242cb4b6937e0a0a75281f8c57a15cb2e64aed7900",
        9.5),                       # 9.34 today; 12.83 before
    # the three baselines on wan-case-3's world, pinned before their
    # write paths were merged into one
    "wan-case-3-ack": (
        lambda: build_wan(expand_test_case(3, 10), 10e6, seed=SEED),
        dict(nbytes=300_000, sndbuf=256 * 1024, protocol="ack"),
        15_086_455,
        "ce644d5ea57f82ffb57abb455755a4e5a97859db2abbbd6fa36683f616e89292",
        "66e8e36080af86f46a62874ffe74c6afb9c330906a6553a5a0199af97c234de9",
        122.6),                     # 120.77 today
    "wan-case-3-polling": (
        lambda: build_wan(expand_test_case(3, 10), 10e6, seed=SEED),
        dict(nbytes=300_000, sndbuf=256 * 1024, protocol="polling"),
        914_456,       # statistics re-pinned when polling began to
                       # count retrans_bytes (0 -> 11 680); history kept
        "af82bfc472ec6714d6ea92a9ddfca56c7ac39e0c0da85cb5889a7cce61023374",
        "655ef244e4e2822d7c889a2d9abbf46200b79271697f5a2d9dfeaac9a8bfc00b",
        43.6),                      # 42.97 today
    "wan-case-3-tcp": (
        lambda: build_wan(expand_test_case(3, 10), 10e6, seed=SEED),
        dict(nbytes=300_000, sndbuf=256 * 1024, protocol="tcp"),
        131_449_404,
        "bed38ee735f36c8b6d6e2596d200d36143b5573a1671993cff52627b940a8108",
        "aedd2142abfc1948ebda52ab80029701c9edceda175683ffdac8bde330df099c",
        23.2),                      # 22.87 today
    # a crash that must release the socket lock (the backlogged packet
    # is delivered at kill time) and the rejoin after it
    "lan-2-crash-rejoin": (
        _lan_2_crash_rejoin,
        dict(nbytes=1_000_000, sndbuf=512 * 1024), 208_450,
        "4497615ac4da51bbaefe3dc35d29123f6a8bdba0667caec14201a4101808d1f1",
        "643054ec190b01ca0f62360561b7e688701b67d41064e00e17b054a84f496e49",
        6.5),                       # 6.41 today
}


#: name -> ceiling on profiled calls per packet sent, bare run.
#: Comments: today / while the receiving application was a generator
#: chain / before the per-packet call ladder was flattened / while every
#: receiver got its own copy of every frame and skb.
CALLS_PER_PACKET = {
    "lan-2": 129.5,                 # 125.5 / 168.4 / 313.7 / 178.2
    "lan-2-long": 129.5,            # 125.4 / 168.4 / 313.8 / 178.2
    "lan-40": 1_807.0,              # 1 754.3 / 2 412.3 / 5 214.2 / 2 679.2
    "wan-case-3": 845.0,            # 820.1 / 1 001.6 / 2 719.9 / 1 051.0
                                    # (2 126.4 while loss recovery
                                    # scanned its state)
    "lan-disk": 173.5,              # 168.4 / 215.5 / 412.9 / 231.5
    # today / while the receiving application was a generator chain /
    # while each baseline had its own write path (in flight summed the
    # unsent queue; every segment built a BaselineType)
    "wan-case-3-ack": 1_894.0,      # 1 841.7 / 2 016.5 / 2 687.8
    "wan-case-3-polling": 781.5,    # 759.5 / 880.4 / 927.2
    "wan-case-3-tcp": 402.5,        # 390.6 / 411.6 / 1 116.8
    "lan-2-crash-rejoin": 112.5,    # 109.1 / 138.7
}


#: the observer `OBSERVED_CALLS_PER_PACKET` bounds, by its keyword
#: arguments: the benchmark's overhead ratio's (the engine profiler)
OBSERVERS = {"profile": {"profile": True}}

#: name -> observer -> ceiling on the same count with that observer
#: attached: today's count plus about 3 %, or less (the count moves by
#: up to 0.35 % between CPython 3.10, 3.11 and 3.12 and by 0.01 % with
#: what ran earlier in the interpreter).  The profiler adds its own cost
#: per engine event, about 23 calls per packet on `lan-2` (148.1 against
#: 125.6 bare).
#: Comments: today's count, then the count while every profiled
#: observer also ran the metric gauges' scrape loop / while it also
#: subscribed a span collector to the packet seam / while the profiler
#: keyed a timer firing by its timer's name as well / while the
#: receiving application was a generator chain / before the packet seam
#: stopped building a record per tapped packet and the two profilers
#: were folded into one table.  The protocol's `gap` and `repair` seam
#: facts went with the causal recorder, which took 0.8 / 0.5 calls per
#: packet off `lan-40` / `wan-case-3`.  Protocol health has no row: it
#: is a read of the bare run, which `CALLS_PER_PACKET` already bounds.
OBSERVED_CALLS_PER_PACKET = {
    # 148.1 / 150.0 / 168.6 / 168.8 / 211.6 / 263.7
    "lan-2": {"profile": 150.5},
    # 148.0 / 149.5 / 168.1 / 168.3 / 211.2 / 263.4
    "lan-2-long": {"profile": 150.0},
    # 2 043.2 / 2 125.6 / 2 414.9 / 2 415.3 / 3 065.9 / 3 974.6
    "lan-40": {"profile": 2_104.5},
    # 963.6 / 1 092.3 / 1 177.6 / 1 183.9 / 1 333.9 / 2 676.6
    "wan-case-3": {"profile": 992.5},
    # 196.5 / 202.0 / 229.6 / 230.1 / 277.1 / 356.4
    "lan-disk": {"profile": 202.5},
}


def _stats_sha(result) -> str:
    canon = json.dumps(
        {"sender": result.sender_stats.as_dict(),
         "receivers": result.receiver_stats.as_dict(),
         "duration_us": result.duration_us,
         "drops": result.drop_summary},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _history_sha(tracer) -> str:
    # stable sort: each host's events keep their order within an instant
    events = sorted(tracer.events, key=lambda e: (e.t_us, e.host))
    return hashlib.sha256("\n".join(map(repr, events)).encode()).hexdigest()


def _complete(result) -> bool:
    """Every receiver got the whole stream; under a crash, every one
    the plan spared."""
    if result.crashed_receivers:
        return result.surviving_ok
    return result.ok


def measure(name):
    """(duration_us, statistics sha, history sha, events per packet)."""
    build, kwargs = PINNED[name][:2]
    tracer = PacketTracer()
    result = run_transfer(build(), seed=SEED, tracer=tracer, **kwargs)
    assert _complete(result)
    sent = result.sender_stats
    return (result.duration_us, _stats_sha(result), _history_sha(tracer),
            result.sim_events / (sent.data_pkts_sent + sent.retrans_pkts))


@pytest.mark.parametrize("name", PINNED)
def test_simulated_statistics_are_pinned_and_events_bounded(name):
    duration_us, stats, history, events_per_packet = PINNED[name][2:]
    got = measure(name)
    assert got[:3] == (duration_us, stats, history)
    assert got[3] <= events_per_packet


def calls_per_packet(name, observer=None):
    """Function calls cProfile counts inside `run_transfer`, per packet
    the sender put on the wire: no tracer and no observer, or the
    observer `OBSERVERS[observer]` builds."""
    build, kwargs = PINNED[name][:2]
    scenario = build()
    obs = None if observer is None else Observability(**OBSERVERS[observer])
    profile = cProfile.Profile()
    result = profile.runcall(run_transfer, scenario, seed=SEED, obs=obs,
                             **kwargs)
    assert _complete(result)
    sent = result.sender_stats.data_pkts_sent + \
        result.sender_stats.retrans_pkts
    return pstats.Stats(profile).total_calls / sent


@pytest.mark.parametrize("name", PINNED)
def test_host_calls_per_packet_are_bounded(name):
    assert calls_per_packet(name) <= CALLS_PER_PACKET[name]


@pytest.mark.parametrize("name,observer", [
    (name, observer) for name, ceilings in
    OBSERVED_CALLS_PER_PACKET.items() for observer in ceilings])
def test_observed_calls_per_packet_are_bounded(name, observer):
    assert calls_per_packet(name, observer) <= \
        OBSERVED_CALLS_PER_PACKET[name][observer]


# -- loss recovery costs per hole, not per parked or buffered packet -------

def calls_in(fn) -> int:
    """Function calls cProfile counts inside ``fn()``, beyond those of
    profiling a call that does nothing."""
    def total(f):
        profile = cProfile.Profile()
        profile.runcall(f)
        return pstats.Stats(profile).total_calls
    return total(fn) - total(lambda: None)


def _segment(seq, length, ptype=PacketType.DATA):
    return SKBuff(sport=5000, dport=6000, seq=seq, ptype=ptype,
                  length=length, rate_adv=1, tries=1)


def _ooo_arrival_calls(parked):
    """One out-of-order arrival opening a second hole, behind one hole
    and ``parked`` contiguous parked segments."""
    sim = Simulator()
    r = make_receiver(sim, FakeHost(sim), rcvbuf=64 << 20)
    mss = r.cfg.mss
    r.segment_received(_segment(1, mss), "10.0.0.1")
    for i in range(parked):
        r.segment_received(_segment(1 + (2 + i) * mss, mss), "10.0.0.1")
    assert len(r._ooo) == parked and len(r.naks) == 1
    arrival = _segment(1 + (parked + 3) * mss, mss)
    calls = calls_in(lambda: r.segment_received(arrival, "10.0.0.1"))
    assert len(r.naks) == 2
    return calls


def test_an_out_of_order_arrival_does_not_scan_the_parked_segments():
    assert _ooo_arrival_calls(1_000) == _ooo_arrival_calls(10)


def _nak_served_calls(queued):
    """One NAK for the last of ``queued`` sent skbs."""
    sim = Simulator()
    s = make_sender(sim, FakeHost(sim), sndbuf=4 * queued * 2048)
    mss = s.cfg.mss
    s.sendmsg_some(PatternPayload(0, queued * mss))
    s._unsent.clear()
    for skb in s.sock.write_queue:      # as if each went out once
        skb.tries, skb.last_sent_us = 1, 0
    last = s.sock.write_queue.peek_tail()
    nak = _segment(last.seq, mss, PacketType.NAK)
    calls = calls_in(lambda: s.segment_received(nak, "10.0.0.9"))
    assert list(s._retrans) == [last]
    return calls


def test_a_nak_is_served_without_walking_the_write_queue():
    assert _nak_served_calls(1_000) - _nak_served_calls(10) <= 30


def test_reading_the_worst_rtt_makes_no_call():
    sim = Simulator()
    s = make_sender(sim, FakeHost(sim))
    for addr in ("10.0.0.2", "10.0.0.3"):
        s.rtt.sample(addr, 40_000)
    assert calls_in(lambda: s.rtt.rtt_us) == 0
