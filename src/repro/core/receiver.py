"""The H-RMC receiver (paper section 4.3, Figure 9).

Components:

* **Main packet processor** (``hrmc_rcv_data``): reassembles the data
  stream, parks out-of-order segments, detects gaps and generates NAKs,
  and evaluates the flow-control rules of Figure 2 on every arrival.
* **NAK manager** (``nak_timer``): re-sends pending NAKs, under local
  suppression so the sender gets ample opportunity to respond.
* **Update generator** (``update_timer``): periodic UPDATEs carrying
  the next expected sequence number, sent only in the absence of other
  reverse traffic, with the dynamically adapted period.
* **Application interface** (``hrmc_recvmsg``): delivers the in-order
  stream to the application and advances the receive window as data is
  consumed.

Also handles the receiver side of the membership handshake (JOIN on
first data packet, LEAVE at close), PROBE polling (answer with UPDATE
or an immediate NAK), and the optional FEC repair extension.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.rng import substream

from repro.core.config import HRMCConfig
from repro.core.nak import NakList
from repro.core.rtt import RttEstimator
from repro.core.seq import (SEQ_HALF, SEQ_MASK, seq_add, seq_geq, seq_gt,
                            seq_leq, seq_lt, seq_max, seq_min, seq_sub)
from repro.core.types import FIN, URG, PacketType
from repro.core.window import Region, classify_fill, window_empty
from repro.core.update import UpdatePolicy
from repro.kernel.host import Host
from repro.kernel.payload import Payload, PatternPayload
from repro.kernel.skbuff import SKBuff
from repro.kernel.sock import Sock
from repro.sim.timer import JIFFY_US, Timer
from repro.stats.metrics import Counters

__all__ = ["HRMCReceiver"]

FEC_PARITY = 0x8000  # flags bit marking a parity frame


class HRMCReceiver:
    def __init__(self, host: Host, sock: Sock, cfg: HRMCConfig,
                 counters: Counters):
        self.host = host
        self.sock = sock
        self.cfg = cfg
        self.stats = counters
        self.sim = host.sim

        self.rcv_wnd = cfg.iss        # first unread byte
        self.rcv_nxt = cfg.iss        # next expected sequence number
        self.rcv_wnd_size = sock.rcvbuf
        self.highest_seen = cfg.iss   # right-most byte observed (incl. ooo)
        self.eof_seq: Optional[int] = None
        self.eof_reached = False
        self.lost_bytes = 0           # bytes abandoned after NAK_ERR (RMC)
        self.error: Optional[str] = None

        self.sender_addr: Optional[str] = None
        self.sender_port: Optional[int] = None
        self.join_state = "idle"      # idle -> sent -> joined
        self._join_tries = 0
        self._join_sent_us = -1

        self.rtt = RttEstimator(cfg.initial_rtt_us, cfg.min_rtt_us)
        self.naks = NakList()
        self.update = UpdatePolicy(
            initial_jiffies=cfg.update_initial_jiffies,
            min_jiffies=cfg.update_min_jiffies,
            max_jiffies=cfg.update_max_jiffies,
            step_jiffies=cfg.update_step_jiffies,
            dynamic=cfg.dynamic_update_timer)
        self._feedback_since_update = False
        self._last_urgent_us = -(10 ** 12)
        self._last_adv_rate = 0

        self._ooo: dict[int, SKBuff] = {}       # out_of_order_queue by seq
        # claim frontier, never behind rcv_nxt: every byte of
        # [rcv_nxt, _claimed_to) is parked or pending in naks, and no
        # byte at or past it is parked
        self._claimed_to = cfg.iss
        self._parity: dict[int, int] = {}       # FEC: block start -> extent
        # local recovery (future-work extension 3)
        self._repair_cache: "OrderedDict[int, SKBuff]" = OrderedDict()
        self._repair_cache_bytes = 0
        self._repairs_seen: dict[int, int] = {}   # seq -> time observed
        self._lr_rng = substream(0, f"local-recovery:{host.addr}")

        # recovery books (the NAK list keeps the gap ledger): re-sent
        # NAKs, pending NAKs a peer's repair answered, repairs that
        # filled a hole or arrived for data already held, and the
        # repair cache's traffic
        self.naks_resent = 0
        self.naks_suppressed_peer = 0
        self.repairs_useful = 0
        self.repairs_redundant = 0
        self.repair_redundant_bytes = 0
        self.cache_inserts = 0
        self.cache_evictions = 0
        self.cache_overwrites = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.repairs_suppressed = 0

        self.leave_acked = False
        self.failed = False             # sender declared dead
        self._last_sender_us = -1
        self.nak_timer = Timer(host.clock, self._nak_tick, "nak")
        self.update_timer = Timer(host.clock, self._update_tick, "update")
        self.join_timer = Timer(host.clock, self._join_retry, "join-retry")
        self.liveness_timer = Timer(host.clock, self._liveness_tick,
                                    "liveness")
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        if self.cfg.updates_enabled:
            self.update_timer.mod_after(self.update.period_us)
        # a receiver that never hears a sender gives up after the same
        # silence as one that lost it; the first packet re-arms this
        self.liveness_timer.mod_after(self.cfg.session_timeout_us // 4)

    def stop(self) -> None:
        self._closed = True
        self.nak_timer.del_timer()
        self.update_timer.del_timer()
        self.join_timer.del_timer()
        self.liveness_timer.del_timer()

    def books(self) -> dict:
        """The recovery books as plain data: this receiver's, its NAK
        list's, its update policy's and two ``Counters`` cells."""
        naks, update = self.naks, self.update
        return {
            "host": self.host.addr, "lags_us": list(naks.lags_us),
            "unresolved": len(naks), "naks_sent": self.stats.naks_sent,
            "dup_pkts_rcvd": self.stats.dup_pkts_rcvd,
            "adjust_ups": update.adjust_ups,
            "adjust_downs": update.adjust_downs,
            **{name: getattr(naks, name) for name in (
                "gaps_opened", "gap_bytes", "gaps_filled", "gaps_abandoned",
                "suppressed_timer")},
            **{name: getattr(self, name) for name in (
                "naks_resent", "naks_suppressed_peer", "repairs_useful",
                "repairs_redundant", "repair_redundant_bytes",
                "repairs_suppressed", "cache_inserts", "cache_evictions",
                "cache_overwrites", "cache_hits", "cache_misses")},
        }

    # ------------------------------------------------------------------
    # packet processor

    def segment_received(self, skb: SKBuff, src: str) -> None:
        if self._closed:
            return
        ptype = skb.ptype
        if ptype != PacketType.NAK:   # everything else originates at the
            self._last_sender_us = self.sim.now   # sender: it is alive
        if ptype == PacketType.DATA:
            # nothing left to learn once the JOIN is out
            if self.join_state == "idle" and (
                    self.sender_addr is None or src == self.sender_addr):
                self._learn_sender(skb, src)
            if skb.flags & FEC_PARITY:
                self._on_parity(skb)
            else:
                self._on_data(skb, src)
        elif ptype == PacketType.KEEPALIVE:
            self._learn_sender(skb, src)
            self.stats.keepalives_rcvd += 1
            if seq_gt(skb.seq, self.rcv_nxt):
                self._note_gap(skb.seq)
        elif ptype == PacketType.NAK:
            self._on_peer_nak(skb, src)
        elif ptype == PacketType.PROBE:
            self._on_probe(skb)
        elif ptype == PacketType.JOIN_RESPONSE:
            self._on_join_response()
        elif ptype == PacketType.NAK_ERR:
            self._on_nak_err(skb)
        elif ptype == PacketType.LEAVE_RESPONSE:
            self.leave_acked = True
            self.sock.state_change.fire()

    def _learn_sender(self, skb: SKBuff, src: str) -> None:
        if self.sender_addr is None:
            self.sender_addr = src
            self.sender_port = skb.sport
            self.liveness_timer.mod_after(self.cfg.session_timeout_us // 4)
        if self.join_state == "idle":
            self._send_join(trigger_seq=skb.seq)

    def _liveness_tick(self) -> None:
        """Declare the sender dead after prolonged total silence
        (keepalives are capped at 2 s, so silence means it is gone)."""
        if self._closed or self.at_eof():
            return
        idle = self.sim.now - self._last_sender_us
        if idle >= self.cfg.session_timeout_us:
            self.failed = True
            self.error = "sender unreachable (session timeout)"
            self.sock.data_ready.fire()   # unblock a sleeping application
        else:
            self.liveness_timer.mod_after(self.cfg.session_timeout_us // 4)

    # -- data reassembly ----------------------------------------------------

    # _on_data, _integrate, _flow_control and recvmsg run once per
    # packet and spell their core.seq / classify_fill arithmetic inline,
    # each form named by the definition it is tested against
    # (tests/core/test_inlined_forms.py); nothing else may, but for the
    # sender's release check, MemberTable.all_have.

    def _on_data(self, skb: SKBuff, src: str = "") -> None:
        self.stats.data_pkts_rcvd += 1
        self.stats.data_bytes_rcvd += skb.length
        seq = skb.seq
        end = (seq + skb.length) & SEQ_MASK             # skb.end_seq
        rcv_nxt = self.rcv_nxt
        if (self.highest_seen - end) & SEQ_HALF:        # seq_max
            self.highest_seen = end
        peer_repair = (self.cfg.local_recovery and src and
                       self.sender_addr is not None and
                       src != self.sender_addr)
        if peer_repair:
            # remember the repair so our own pending repair for the same
            # data is suppressed
            self._repairs_seen[seq] = self.sim.now
            # pending NAKs this repair resolves were suppressed by the
            # peer, not by our own re-NAK reaching the sender
            for rng in self.naks:
                if seq_lt(rng.start, end) and seq_gt(rng.end, seq):
                    self.naks_suppressed_peer += 1
        repair = skb.tries > 1 or peer_repair      # a retransmission

        if not 0 < ((end - rcv_nxt) & SEQ_MASK) < SEQ_HALF:     # seq_leq
            self.stats.dup_pkts_rcvd += 1
            if repair:
                self.repairs_redundant += 1
                self.repair_redundant_bytes += skb.length
            self._flow_control(skb)
            return
        if peer_repair:
            self.stats.local_repairs_used += 1
        # seq_gt(end, seq_add(rcv_wnd, rcv_wnd_size + 1))
        if 0 < ((end - self.rcv_wnd - self.rcv_wnd_size - 1)
                & SEQ_MASK) < SEQ_HALF:
            # region R4: beyond the receive window; cannot buffer
            self.stats.out_of_window_drops += 1
            self._send_urgent()
            return

        if 0 < ((seq - rcv_nxt) & SEQ_MASK) < SEQ_HALF:         # seq_gt
            # a gap precedes this segment
            self.stats.out_of_order_pkts += 1
            if seq not in self._ooo:
                if repair:
                    self.repairs_useful += 1
                self._park(skb, end)
            else:
                self.stats.dup_pkts_rcvd += 1
                if repair:
                    self.repairs_redundant += 1
                    self.repair_redundant_bytes += skb.length
        else:
            if repair:
                self.repairs_useful += 1
            self._integrate(skb)
            if self._ooo:
                self._drain_ooo()
        self._flow_control(skb)
        if self._parity:
            self._try_fec_repairs()

    def _integrate(self, skb: SKBuff) -> None:
        """Deliver an skb that starts at or before rcv_nxt."""
        seq = skb.seq
        end = (seq + skb.length) & SEQ_MASK             # skb.end_seq
        # the frontier keeps up with rcv_nxt, so it is never 2**31 behind
        if (self._claimed_to - end) & SEQ_HALF:         # seq_max
            self._claimed_to = end
        if skb.flags & FIN:
            self.eof_seq = seq
            self.rcv_nxt = end  # consume the phantom byte
            self.naks.fill_below(end, self.sim.now)
            self.sock.data_ready.fire()
            return
        # seq_sub(rcv_nxt, seq)
        trim = ((self.rcv_nxt - seq + SEQ_HALF) & SEQ_MASK) - SEQ_HALF
        payload: Optional[Payload] = skb.payload
        if trim:
            # an overlap (or, at 2**31 bytes and more, a negative trim):
            # queue a private skb holding only the new bytes
            length = skb.length - trim
            if trim > 0 and payload is not None:
                payload = payload.slice(trim, length)
            skb = SKBuff(sport=skb.sport, dport=skb.dport, seq=self.rcv_nxt,
                         ptype=PacketType.DATA, length=length,
                         payload=payload)
        # else the arriving segment itself: the queue reads only seq,
        # length and payload, which no sender writes once it is built
        self.sock.receive_queue.enqueue(skb)
        if self.cfg.local_recovery and payload is not None:
            self._cache_for_repair(skb.seq, skb.length, payload)
        self.rcv_nxt = end
        if self.naks.ranges:        # no NAK pending: nothing to fill
            self.naks.fill_below(end, self.sim.now)
        self.sock.data_ready.fire()

    def _cache_for_repair(self, seq: int, length: int,
                          payload: Payload) -> None:
        """Retain delivered data so we can serve peer repair requests."""
        if seq in self._repair_cache:
            self.cache_overwrites += 1
            return
        entry = SKBuff(sport=self.sock.num, dport=self.sock.num, seq=seq,
                       ptype=PacketType.DATA, length=length, payload=payload)
        self._repair_cache[seq] = entry
        self._repair_cache_bytes += length
        self.cache_inserts += 1
        while self._repair_cache_bytes > self.cfg.repair_cache_bytes:
            _, old = self._repair_cache.popitem(last=False)
            self._repair_cache_bytes -= old.length
            self.cache_evictions += 1

    def _drain_ooo(self) -> None:
        ooo = self._ooo
        while True:
            skb = ooo.pop(self.rcv_nxt, None)
            if skb is None:
                # tolerate retransmissions that re-segmented: find any
                # parked segment now overlapping rcv_nxt, and free those
                # it has passed (a NAK_ERR jump, an in-order repair cut
                # at other boundaries)
                candidate = None
                passed = []
                for s, parked in ooo.items():
                    if seq_leq(s, self.rcv_nxt):
                        if seq_gt(parked.end_seq, self.rcv_nxt):
                            candidate = s
                            break
                        passed.append(s)
                for s in passed:
                    del ooo[s]
                if candidate is None:
                    break
                skb = ooo.pop(candidate)
            self._integrate(skb)

    def _park(self, skb: SKBuff, end: int) -> None:
        """Hold ``skb``, which starts past rcv_nxt, until the bytes before
        it arrive: its own bytes are no longer wanted, those before it
        are claimed, and the frontier moves to its ``end``."""
        seq = skb.seq
        self._ooo[seq] = skb
        self.naks.fill(seq, end, self.sim.now)
        self._note_gap(seq)
        self._claimed_to = seq_max(self._claimed_to, end)

    def _note_gap(self, end: int) -> None:
        """The sender is known to have sent everything below ``end``:
        claim [_claimed_to, end) -- below the frontier every byte is
        already parked or pending, past it none is parked -- NAK it and
        move the frontier to ``end``.  Every claim site comes through
        here, so ``naks`` is always revealed-minus-held."""
        now = self.sim.now
        start = self._claimed_to
        fresh = []
        if seq_lt(start, end):
            self._claimed_to = end
            fresh = self.naks.add_gap(start, end, now)
        for rng in fresh:
            self._send_nak(rng, now)
        if self.naks and not self.nak_timer.pending:
            self.nak_timer.mod_after(self._nak_period_us())

    # -- NAK manager --------------------------------------------------

    def _nak_period_us(self) -> int:
        return max(JIFFY_US, self.rtt.rtt_us // 2)

    def _suppress_us(self) -> int:
        return int(self.cfg.nak_suppress_rtts * self.rtt.rtt_us)

    def _nak_tick(self) -> None:
        if self._closed:
            return
        now = self.sim.now
        for rng in self.naks.due(now, self._suppress_us(), tick=True):
            self._send_nak(rng, now)
        if self.naks:
            self.nak_timer.mod_after(self._nak_period_us())

    def _send_nak(self, rng, now: int) -> None:
        if self.sender_addr is None:
            return
        length = min(rng.length, self.cfg.nak_max_range)
        skb = self._feedback_skb(PacketType.NAK, seq=rng.start)
        skb.length = length
        # NAKs, like all feedback, carry the receiver's next expected
        # sequence number (paper section 3); it rides in rate_adv since
        # seq names the requested range start.
        skb.rate_adv = self.rcv_nxt
        if (self.cfg.local_recovery and
                rng.local_tries < self.cfg.local_recovery_tries and
                self.sock.daddr is not None):
            # future-work (3): ask the local site first -- multicast the
            # NAK to the group; peers with the data multicast a repair
            skb.dport = self.sock.num
            self.host.ip_send(skb, self.sock.daddr)
            rng.local_tries += 1
        else:
            self.host.ip_send(skb, self.sender_addr)
        self.naks.mark_sent(rng, now)
        self.stats.naks_sent += 1
        if rng.tries > 1:   # mark_sent already ran: 1 is a first send
            self.naks_resent += 1
        self._feedback_since_update = True

    # -- peer repair (local recovery, future-work extension 3) ----------

    def _on_peer_nak(self, skb: SKBuff, src: str) -> None:
        """A peer multicast a NAK; serve it from the repair cache after
        a randomized suppression delay."""
        if not self.cfg.local_recovery or src == self.host.addr:
            return
        start, end = skb.seq, seq_add(skb.seq, max(1, skb.length))
        if seq_lt(self.rcv_nxt, end):
            return  # we don't have all of it either
        chunks = [e for s, e in self._repair_cache.items()
                  if seq_lt(s, end) and seq_gt(e.end_seq, start)]
        if not chunks:
            self.cache_misses += 1
            return
        self.cache_hits += len(chunks[:8])
        delay = int(self._lr_rng.uniform(0.1, 1.0) * max(self.rtt.rtt_us,
                                                         2_000))
        self.sim.call_after(delay, self._emit_repairs, chunks[:8])

    def _emit_repairs(self, chunks: list[SKBuff]) -> None:
        if self._closed or self.sock.daddr is None:
            return
        now = self.sim.now
        horizon = 2 * max(self.rtt.rtt_us, 2_000)
        for entry in chunks:
            seen = self._repairs_seen.get(entry.seq)
            if seen is not None and now - seen < horizon:
                self.repairs_suppressed += 1
                continue  # someone else already repaired it
            repair = SKBuff(sport=self.sock.num, dport=self.sock.num,
                            seq=entry.seq, ptype=PacketType.DATA,
                            length=entry.length, tries=1,
                            payload=entry.payload)
            self.host.ip_send(repair, self.sock.daddr)
            self._repairs_seen[entry.seq] = now
            self.stats.local_repairs_sent += 1

    # -- flow control (Figure 2 rules) ------------------------------------

    def _flow_control(self, skb: SKBuff) -> None:
        self._last_adv_rate = skb.rate_adv
        high = self.rcv_nxt                             # seq_max
        if (high - self.highest_seen) & SEQ_HALF:
            high = self.highest_seen
        # window_fill without its floor at 0: below 0 is SAFE as well
        fill = ((high - self.rcv_wnd + SEQ_HALF) & SEQ_MASK) - SEQ_HALF
        size = self.rcv_wnd_size
        # classify_fill's own comparison (config holds warn < crit):
        # SAFE on all but a few arrivals, and SAFE asks for nothing
        if size > 0 and fill / size < self.cfg.warn_fill:
            return
        if classify_fill(fill, size, self.cfg.warn_fill,
                         self.cfg.crit_fill) is Region.CRITICAL:
            self._send_urgent()
            return
        # warning rule: request a lower rate if WARNBUF RTTs of traffic at
        # the advertised rate would overrun the empty part of the window
        empty = window_empty(self.rcv_wnd, high, size)
        horizon_s = self.cfg.warnbuf_rtts * self.rtt.rtt_us / 1e6
        if skb.rate_adv * horizon_s > empty:
            suggested = int(empty / horizon_s) if horizon_s > 0 else 0
            ctrl = self._feedback_skb(PacketType.CONTROL, seq=self.rcv_nxt)
            ctrl.rate_adv = max(0, suggested)
            if self.sender_addr is not None:
                self.host.ip_send(ctrl, self.sender_addr)
                self.stats.rate_requests_sent += 1
                self._feedback_since_update = True

    def _send_urgent(self) -> None:
        now = self.sim.now
        if now - self._last_urgent_us < self.rtt.rtt_us:
            return  # the sender is already stopped for 2 RTTs
        if self.sender_addr is None:
            return
        self._last_urgent_us = now
        skb = self._feedback_skb(PacketType.CONTROL, seq=self.rcv_nxt,
                                 flags=URG)
        self.host.ip_send(skb, self.sender_addr)
        self.stats.urgent_requests_sent += 1
        self._feedback_since_update = True

    # -- update generator ----------------------------------------------

    def _update_tick(self) -> None:
        if self._closed:
            return
        if not self._feedback_since_update and self.sender_addr is not None:
            self._send_update()
        self._feedback_since_update = False
        self.update_timer.mod_after(self.update.end_period())

    def _send_update(self) -> None:
        skb = self._feedback_skb(PacketType.UPDATE, seq=self.rcv_nxt)
        self.host.ip_send(skb, self.sender_addr)
        self.stats.updates_sent += 1

    # -- probes ----------------------------------------------------------

    def _on_probe(self, skb: SKBuff) -> None:
        self.stats.probes_rcvd += 1
        self.update.note_probe()
        if seq_geq(self.rcv_nxt, skb.seq):
            if self.sender_addr is not None:
                self._send_update()
                self._feedback_since_update = True
        else:
            # generate the NAK for the needed data, now
            self._note_gap(skb.seq)
            # refresh existing NAKs for the probed span, under suppression
            now = self.sim.now
            for rng in self.naks.due(now, self._suppress_us()):
                if seq_lt(rng.start, skb.seq):
                    self._send_nak(rng, now)

    # -- membership handshake ------------------------------------------

    def _send_join(self, trigger_seq: int) -> None:
        if self.sender_addr is None:
            return
        skb = self._feedback_skb(PacketType.JOIN, seq=self.rcv_nxt)
        skb.rate_adv = trigger_seq  # echo: lets the sender take an RTT sample
        self.host.ip_send(skb, self.sender_addr)
        self.stats.joins_sent += 1
        self.join_state = "sent"
        self._join_tries += 1
        self._join_sent_us = self.sim.now
        self._feedback_since_update = True
        self.join_timer.mod_after(self.cfg.join_retry_us)

    def _join_retry(self) -> None:
        if self.join_state != "sent" or self._closed:
            return
        if self._join_tries >= self.cfg.join_max_tries:
            self.join_state = "joined"  # give up; data flow implies success
            return
        self.join_state = "idle"
        self._send_join(trigger_seq=self.rcv_nxt)

    def _on_join_response(self) -> None:
        if self.join_state == "sent":
            self.rtt.sample(self.sim.now - self._join_sent_us)
            self.join_state = "joined"
            self.join_timer.del_timer()

    # -- NAK_ERR: requested data is gone (RMC's reliability escape hatch)

    def _on_nak_err(self, skb: SKBuff) -> None:
        self.stats.nak_errs_rcvd += 1
        self.error = "retransmission unavailable (NAK_ERR)"
        lost_to = skb.seq  # the sender's window edge
        if seq_gt(lost_to, self.rcv_nxt):
            self.lost_bytes += seq_sub(lost_to, self.rcv_nxt)
            self.rcv_nxt = lost_to
            self._claimed_to = seq_max(self._claimed_to, lost_to)
            # unread data resumes after the hole; window origin moves too
            self.rcv_wnd = seq_max(self.rcv_wnd, lost_to)
            self.naks.fill_below(lost_to, self.sim.now, abandon=True)
            self._drain_ooo()
            self.sock.data_ready.fire()

    # -- FEC repair (future-work extension 4) ---------------------------------

    def _on_parity(self, skb: SKBuff) -> None:
        self._parity[skb.seq] = skb.rate_adv  # block extent in bytes
        self._try_fec_repairs()

    def _try_fec_repairs(self) -> None:
        if not self.cfg.fec_enabled or not self._parity:
            return
        repaired = []
        for block_start, extent in self._parity.items():
            block_end = seq_add(block_start, extent)
            if seq_leq(block_end, self.rcv_nxt):
                repaired.append(block_start)
                continue
            gaps = self._gaps_in(block_start, block_end)
            if len(gaps) == 1 and \
                    seq_sub(gaps[0][1], gaps[0][0]) <= self.cfg.mss:
                start, end = gaps[0]
                length = seq_sub(end, start)
                synth = SKBuff(
                    sport=self.sender_port or 0, dport=self.sock.num,
                    seq=start, ptype=PacketType.DATA, length=length,
                    payload=PatternPayload(seq_sub(start, self.cfg.iss),
                                           length))
                self.stats.fec_repairs += 1
                if seq_leq(synth.seq, self.rcv_nxt):
                    self._integrate(synth)
                    self._drain_ooo()
                else:
                    self._park(synth, end)  # a gap's start is never parked
                repaired.append(block_start)
        for b in repaired:
            self._parity.pop(b, None)

    def _gaps_in(self, start: int, end: int) -> list[tuple[int, int]]:
        """Missing subranges of [start, end), as maximal runs: the
        pending NAK ranges, and the span past the claim frontier, where
        nothing is parked."""
        lo = seq_max(start, self.rcv_nxt)
        runs = [(rng.start, rng.end) for rng in self.naks]
        runs.append((self._claimed_to, end))
        gaps: list[tuple[int, int]] = []
        for a, b in runs:
            a, b = seq_max(a, lo), seq_min(b, end)
            if seq_lt(a, b):
                if gaps and gaps[-1][1] == a:
                    gaps[-1] = (gaps[-1][0], b)
                else:
                    gaps.append((a, b))
        return gaps

    # ------------------------------------------------------------------
    # application interface (hrmc_recvmsg)

    def recvmsg(self, max_bytes: int) -> list[Payload]:
        """Pop up to ``max_bytes`` of in-order payload; non-blocking."""
        out: list[Payload] = []
        taken = 0
        q = self.sock.receive_queue
        while taken < max_bytes:
            skb = q.dequeue()
            if skb is None:
                break
            want = max_bytes - taken
            if skb.length <= want:
                if skb.payload is not None:
                    out.append(skb.payload)
                want = skb.length       # the whole segment fits
            else:
                # partial read: split the head skb
                head = skb.payload.slice(0, want) if skb.payload else None
                if head is not None:
                    out.append(head)
                rest = SKBuff(sport=skb.sport, dport=skb.dport,
                              seq=seq_add(skb.seq, want),
                              ptype=PacketType.DATA,
                              length=skb.length - want,
                              payload=(skb.payload.slice(want,
                                                         skb.length - want)
                                       if skb.payload else None))
                q.requeue_front(rest)
            taken += want
            # seq_max, not assignment: a NAK_ERR may have advanced the
            # window origin past queued-but-unread data
            read_to = (skb.seq + want) & SEQ_MASK       # seq_add
            if (self.rcv_wnd - read_to) & SEQ_HALF:
                self.rcv_wnd = read_to
            if not q.bytes:     # each skb adds its truesize (> 0) to it
                break           # empty: no second dequeue to find out
        if self.eof_seq is not None and not self.sock.receive_queue and \
                seq_geq(self.rcv_wnd, self.eof_seq):
            self.eof_reached = True
        return out

    def at_eof(self) -> bool:
        if self.failed and not self.sock.receive_queue:
            return True   # sender gone: surface EOF (error is set)
        return self.eof_reached or (
            self.eof_seq is not None and not self.sock.receive_queue and
            seq_geq(self.rcv_wnd, self.eof_seq))

    # -- teardown ---------------------------------------------------------

    def send_leave(self) -> None:
        if self.sender_addr is None:
            return
        skb = self._feedback_skb(PacketType.LEAVE, seq=self.rcv_nxt)
        self.host.ip_send(skb, self.sender_addr)
        self.stats.leaves_sent += 1

    # ------------------------------------------------------------------

    def _feedback_skb(self, ptype: PacketType, *, seq: int,
                      flags: int = 0) -> SKBuff:
        return SKBuff(sport=self.sock.num,
                      dport=self.sender_port or self.sock.dport,
                      seq=seq, ptype=ptype, length=0, flags=flags, tries=1)
