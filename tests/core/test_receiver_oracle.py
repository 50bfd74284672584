"""Model-based oracle for the receiver's reassembly and NAK state.

Hypothesis drives one :class:`HRMCReceiver` with whatever a lossy,
reordering, re-segmenting network and a retransmitting sender can
produce -- data in any order, duplicates, retransmissions cut at other
boundaries, FEC parity, KEEPALIVEs, PROBEs, NAK_ERRs, idle time,
application reads -- next to a reference that knows nothing but sets of byte offsets:

* ``held``      bytes the receiver accepted,
* ``nxt``       end of the in-order prefix (jumps only on NAK_ERR),
* ``revealed``  how far the sender is known to have sent,
* ``parity``    FEC blocks announced and not yet repaired or passed.

A parity block whose unheld bytes form one run repairs that run, as
if the run had arrived as data; the receiver retries its blocks on
every data arrival it does not discard.

After every step the pending NAK list must be exactly
``[nxt, revealed) - held``, every NAK put on the wire during the step
must ask only for bytes in that set, the receiver must park exactly
the segments that start past ``nxt``, its claim frontier must split
held-or-missing from not-held, the gaps FEC reads must be the unheld
runs past ``nxt``, and what the application can read
must be the in-order prefix of the stream, holes only where a NAK_ERR
abandoned them.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.config import HRMCConfig
from repro.core.seq import seq_add, seq_sub
from repro.core.receiver import FEC_PARITY
from repro.core.types import PacketType
from repro.kernel.payload import pattern_bytes
from repro.sim.engine import Simulator

from tests.core.conftest import FakeHost, make_receiver
from tests.core.test_receiver import SND, control, data, drain, fin

N = 500                                   # stream length, bytes
STREAM = pattern_bytes(0, N)              # what an FEC repair synthesises

offsets = st.integers(0, N + 1)
OPS = st.one_of(
    st.tuples(st.just("data"), st.integers(0, N - 1), st.integers(1, 80)),
    st.tuples(st.just("fin")),
    st.tuples(st.just("parity"), st.integers(0, N - 1), st.integers(1, 80)),
    st.tuples(st.sampled_from(["keepalive", "probe", "nak_err"]), offsets),
    st.tuples(st.just("idle"), st.integers(1, 400_000)),
    st.tuples(st.just("read"), st.integers(1, 200)),
)


class Model:
    def __init__(self):
        self.held: set[int] = set()
        self.parked: set[int] = set()     # start offsets of parked segments
        self.nxt = 0
        self.revealed = 0
        self.parity: dict[int, int] = {}  # block start -> block end
        self.readable = b""               # everything ever deliverable

    def _advance(self) -> None:
        while self.nxt in self.held:
            if self.nxt < N:              # offset N is the FIN's phantom byte
                self.readable += STREAM[self.nxt:self.nxt + 1]
            self.nxt += 1
        self.parked = {s for s in self.parked if s > self.nxt}

    def segment(self, start: int, end: int) -> bool:
        """Accept [start, end); False when it is all delivered already."""
        if end <= self.nxt:
            return False                  # duplicate of delivered data
        if start > self.nxt:
            if start in self.parked:
                return True               # a segment is parked at this seq
            self.parked.add(start)
            self.revealed = max(self.revealed, start)
        self.held |= set(range(max(start, self.nxt), end))
        self._advance()
        return True

    def fec(self, mss: int) -> None:
        for start, end in list(self.parity.items()):
            if end <= self.nxt:
                del self.parity[start]
                continue
            gaps = [(max(a, start), b)
                    for a, b in self.unheld_runs(end) if b > start]
            if len(gaps) == 1 and gaps[0][1] - gaps[0][0] <= mss:
                self.segment(*gaps[0])
                del self.parity[start]

    def reveal(self, upto: int) -> None:
        self.revealed = max(self.revealed, upto)

    def abandon(self, upto: int) -> None:
        if upto > self.nxt:
            self.nxt = upto
            self._advance()

    def missing(self) -> set[int]:
        return set(range(self.nxt, self.revealed)) - self.held

    def unheld_runs(self, end: int) -> list[tuple[int, int]]:
        """Maximal runs of [nxt, end) not held."""
        runs: list[tuple[int, int]] = []
        for x in range(self.nxt, end):
            if x in self.held:
                continue
            if runs and runs[-1][1] == x:
                runs[-1] = (runs[-1][0], x + 1)
            else:
                runs.append((x, x + 1))
        return runs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 0xFFFFFFFF - 200, 0x80000000 - 200]),
       st.lists(OPS, max_size=50))
def test_receiver_matches_interval_set_oracle(iss, ops):
    sim = Simulator()
    host = FakeHost(sim)
    r = make_receiver(sim, host, replace(HRMCConfig(), iss=iss,
                                         fec_enabled=True))
    model = Model()
    got = b""

    def seq(offset):
        return seq_add(iss, offset)

    for op in ops:
        host.clear()
        kind = op[0]
        if kind == "data":
            start, end = op[1], min(op[1] + op[2], N)
            r.segment_received(data(seq(start), STREAM[start:end]), SND)
            if model.segment(start, end):
                model.fec(r.cfg.mss)
        elif kind == "fin":
            r.segment_received(fin(seq(N)), SND)
            if model.segment(N, N + 1):
                model.fec(r.cfg.mss)
        elif kind == "parity":
            start, end = op[1], min(op[1] + op[2], N)
            r.segment_received(data(seq(start), b"", flags=FEC_PARITY,
                                    rate_adv=end - start), SND)
            model.parity[start] = end
            model.fec(r.cfg.mss)
        elif kind == "keepalive":
            r.segment_received(control(PacketType.KEEPALIVE, seq(op[1])), SND)
            model.reveal(op[1])
        elif kind == "probe":
            r.segment_received(control(PacketType.PROBE, seq(op[1])), SND)
            model.reveal(op[1])
        elif kind == "nak_err":
            r.segment_received(control(PacketType.NAK_ERR, seq(op[1])), SND)
            model.abandon(op[1])
        elif kind == "idle":
            sim.run(until=sim.now + op[1])     # NAK manager re-sends
        else:
            got += drain(r, op[1])

        assert seq_sub(r.rcv_nxt, iss) == model.nxt
        assert {seq_sub(s, iss) for s in r._ooo} == model.parked
        assert {seq_sub(s, iss) for s in r._parity} == set(model.parity)
        missing = model.missing()
        # the claim frontier: below it every byte is held or missing,
        # at or past it nothing is held
        frontier = seq_sub(r._claimed_to, iss)
        assert frontier >= model.nxt
        assert set(range(model.nxt, frontier)) <= model.held | missing
        assert all(x < frontier for x in model.held if x >= model.nxt)
        # what FEC repairs from: the unheld runs, read off the NAK list
        gaps = [(seq_sub(a, iss), seq_sub(b, iss))
                for a, b in r._gaps_in(seq(0), seq(N + 2))]
        assert gaps == model.unheld_runs(N + 2)
        pending = [(seq_sub(rng.start, iss), seq_sub(rng.end, iss))
                   for rng in r.naks]
        assert all(a < b for a, b in pending)
        assert all(b1 <= a2 for (_, b1), (a2, _) in zip(pending, pending[1:]))
        assert {x for a, b in pending for x in range(a, b)} == missing
        for skb, _ in host.sent_of_type(PacketType.NAK):
            first = seq_sub(skb.seq, iss)
            assert skb.length > 0
            assert set(range(first, first + skb.length)) <= missing
        queued = b"".join(s.payload.tobytes()
                          for s in r.sock.receive_queue if s.payload)
        assert got + queued == model.readable

    assert got + drain(r) == model.readable
