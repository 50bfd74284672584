"""The H-RMC sender (paper section 4.2, Figure 8).

Five concurrent tasks share the socket state:

* **Application interface** (``hrmc_sendmsg``): fragments the byte
  stream into MSS-sized DATA skbs, charges them to the send buffer and
  queues them on the write queue; data beyond the rate window simply
  waits its turn (the backlog).
* **Transmitter** (``transmit_timer``, every jiffy): spends the
  rate-controller's byte budget on retransmissions first, then new
  data, bounded by NIC ring space; then tries to advance the send
  window.
* **Feedback processor** (``hrmc_master_rcv``): NAKs, rate requests,
  UPDATEs, JOIN/LEAVE.  Every feedback packet carries the receiver's
  next expected sequence number and refreshes the member table.
* **Retransmitter** (``retrans_timer``): serves queued retransmission
  requests promptly rather than waiting out the jiffy.
* **Keepalive controller** (``ka_timer``): exponentially backed-off
  KEEPALIVEs (up to 2 s) whenever the forward path goes quiet, carrying
  the last sequence number so receivers can detect tail loss.

Window release: a packet may leave the buffer only after MINBUF (=10)
RTTs since it was last sent **and**, with reliable release enabled,
once every current member is known to have received it.  Any member
whose state is missing gets a unicast PROBE (multicast above the
optional threshold); the window stalls until the answers arrive.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.core.config import HRMCConfig
from repro.core.membership import Member, MemberTable
from repro.core.rate import RateController
from repro.core.rtt import WorstRtt
from repro.core.seq import (seq_add, seq_geq, seq_gt, seq_leq, seq_lt,
                            seq_min, seq_sub)
from repro.core.types import FIN, URG, PacketType
from repro.kernel.host import Host
from repro.kernel.payload import Payload
from repro.kernel.skbuff import SKB_OVERHEAD, SKBuff
from repro.kernel.sock import Sock
from repro.sim.timer import JIFFY_US, Timer
from repro.stats.metrics import Counters, ReleaseTracker

__all__ = ["HRMCSender"]


class HRMCSender:
    def __init__(self, host: Host, sock: Sock, cfg: HRMCConfig,
                 counters: Counters):
        self.host = host
        self.sock = sock
        self.cfg = cfg
        self.stats = counters
        self.sim = host.sim

        self.snd_wnd = cfg.iss       # first byte still buffered
        self.snd_nxt = cfg.iss       # next new sequence number
        self.fin_seq: Optional[int] = None
        self.closing = False
        self.finished = False

        self.members = MemberTable()
        self.rtt = WorstRtt(cfg.initial_rtt_us, cfg.min_rtt_us)
        self.rate = RateController(
            min_rate=cfg.min_rate_bps // 8,
            max_rate=cfg.max_rate_bps // 8,
            mss=cfg.mss)  # config is bits/s; the controller works in bytes/s
        self.release = ReleaseTracker()

        self._unsent: deque[SKBuff] = deque()
        self._retrans: deque[SKBuff] = deque()
        self._budget = 0.0
        self._last_tick_us = self.sim.now
        self._last_activity_us = self.sim.now
        self._ka_interval_us = cfg.keepalive_initial_us
        self._fec_since_parity = 0
        self._fec_block_start = cfg.iss
        self._tx_drops_seen = 0
        self._highest_sent_end = cfg.iss   # end of the last DATA sent
        # loss-event gating (NewReno-style): NAKs for data below this
        # mark belong to an already-reacted-to loss event and do not cut
        # the rate again
        self._recover_seq = cfg.iss
        # recovery books: rate-cutting loss events, and repair requests
        # deflected because a repair was already in flight
        self.loss_events = 0
        self.repairs_deflected = 0

        # observation point for the invariant checker: called with
        # (sender, skb) just before each segment leaves the write queue,
        # while the membership evidence justifying the release is intact
        self.release_hook: Optional[Callable[["HRMCSender", SKBuff], None]] = None

        # timers run on the host's clock so the fault layer can skew or
        # stall one machine's timer interrupt without touching sim time
        self.transmit_timer = Timer(host.clock, self._transmit_tick,
                                    "transmit")
        self.retrans_timer = Timer(host.clock, self._retrans_tick, "retrans")
        self.ka_timer = Timer(host.clock, self._keepalive_tick, "keepalive")

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        self.transmit_timer.mod_after(JIFFY_US)
        self.ka_timer.mod_after(self._ka_interval_us)

    def stop(self) -> None:
        self.transmit_timer.del_timer()
        self.retrans_timer.del_timer()
        self.ka_timer.del_timer()

    # ------------------------------------------------------------------
    # application interface (hrmc_sendmsg)

    def sendmsg_some(self, payload: Payload) -> int:
        """Fragment as much of ``payload`` as fits the send buffer into
        DATA skbs; returns bytes consumed (0 when the buffer is full)."""
        if self.closing:
            raise RuntimeError("send after close")
        consumed = 0
        total = payload.length
        while consumed < total:
            chunk = min(self.cfg.mss, total - consumed)
            skb = SKBuff(sport=self.sock.num, dport=self.sock.dport,
                         seq=self.snd_nxt, ptype=PacketType.DATA,
                         length=chunk,
                         payload=payload.slice(consumed, chunk))
            if self.sock.wmem_free() < skb.truesize:
                break
            self.sock.write_queue.enqueue(skb)
            self._unsent.append(skb)
            self.snd_nxt = seq_add(self.snd_nxt, chunk)
            consumed += chunk
        if consumed and not self.transmit_timer.pending:
            self.transmit_timer.mod_after(0)
        return consumed

    def queue_fin(self) -> None:
        """Append the FIN marker (one phantom sequence byte)."""
        if self.fin_seq is not None:
            return
        skb = SKBuff(sport=self.sock.num, dport=self.sock.dport,
                     seq=self.snd_nxt, ptype=PacketType.DATA, length=1,
                     flags=FIN, payload=None)
        self.fin_seq = self.snd_nxt
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.sock.write_queue.enqueue(skb)
        self._unsent.append(skb)
        self.closing = True
        if not self.transmit_timer.pending:
            self.transmit_timer.mod_after(0)

    @property
    def drained(self) -> bool:
        """All queued data released from the buffer."""
        return len(self.sock.write_queue) == 0 and not self._unsent

    # ------------------------------------------------------------------
    # transmitter (transmit_timer, every jiffy)

    def _transmit_tick(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_tick_us
        self._last_tick_us = now
        rtt = self.rtt.rtt_us
        # a device-queue overflow on our own interface is a locally
        # observable congestion signal: react as we would to a NAK
        if self.host.tx_ring_busy_drops > self._tx_drops_seen:
            self._tx_drops_seen = self.host.tx_ring_busy_drops
            self.rate.on_loss_signal(now, rtt)
        self._budget += self.rate.allowance(elapsed, rtt, now)
        cap = max(4.0 * self.cfg.mss, self.rate.rate * (2 * JIFFY_US) / 1e6)
        self._budget = min(self._budget, cap)

        self._pump(now)
        self._advance_window(now)

        if not self.finished:
            self.transmit_timer.mod_after(JIFFY_US)

    def _pump(self, now: int) -> None:
        """Spend budget: retransmissions first, then new data.

        Bursts are bounded by the rate budget and by device-queue space
        (``txqueuelen`` back-pressure): what does not fit the queue
        simply waits for the next tick rather than being dropped.
        """
        ring = self.host.tx_space()
        while ring > 0:
            skb: Optional[SKBuff] = None
            retrans = False
            if self._retrans:
                skb = self._retrans[0]
                retrans = True
            elif self._unsent:
                skb = self._unsent[0]
            if skb is None:
                break
            if self._budget < skb.length:
                break
            if retrans:
                self._retrans.popleft()
                if not skb.retrans_pending:
                    continue  # cancelled (released meanwhile)
                skb.retrans_pending = False
            else:
                self._unsent.popleft()
            self._send_data(skb, now, retrans=retrans)
            self._budget -= skb.length
            ring -= 1

    def _send_data(self, skb: SKBuff, now: int, *, retrans: bool) -> None:
        skb.tries += 1
        if skb.first_sent_us < 0:
            skb.first_sent_us = now
        skb.last_sent_us = now
        skb.rate_adv = self.rate.rate_bps
        self.host.ip_send(skb, self.sock.daddr)
        end = skb.end_seq
        if seq_gt(end, self._highest_sent_end):
            self._highest_sent_end = end
        self._last_activity_us = now
        self._ka_interval_us = self.cfg.keepalive_initial_us
        if retrans:
            self.stats.retrans_pkts += 1
            self.stats.retrans_bytes += skb.length
        else:
            self.stats.data_pkts_sent += 1
            self.stats.data_bytes_sent += skb.length
            if self.cfg.fec_enabled:
                self._maybe_send_fec(skb, now)

    def _maybe_send_fec(self, skb: SKBuff, now: int) -> None:
        """Future-work (4): one parity packet per ``fec_block`` data
        packets, letting receivers repair a single loss per block."""
        if skb.flags & FIN:
            return
        self._fec_since_parity += 1
        if self._fec_since_parity < self.cfg.fec_block:
            return
        parity = SKBuff(sport=self.sock.num, dport=self.sock.dport,
                        seq=self._fec_block_start, ptype=PacketType.DATA,
                        length=0, rate_adv=self.rate.rate_bps,
                        flags=0x8000,  # FEC parity marker
                        payload=None)
        # rate_adv is reused to carry the block extent for parity frames
        parity.rate_adv = seq_sub(skb.end_seq, self._fec_block_start)
        parity.tries = 1
        self.host.ip_send(parity, self.sock.daddr)
        self.stats.fec_pkts_sent += 1
        self._fec_since_parity = 0
        self._fec_block_start = skb.end_seq

    # ------------------------------------------------------------------
    # window release (probe_members + advance)

    def _advance_window(self, now: int) -> None:
        # Lazy release: MINBUF is a *minimum* hold -- the window slides
        # only when the application actually needs buffer space (or at
        # close).  This is what gives Figure 3 its buffer-size axis:
        # bigger buffers keep data around longer, so feedback has more
        # time to arrive before release is attempted.
        if not self.closing and \
                self.sock.wmem_free() >= self._release_watermark():
            return
        rtt = self.rtt.rtt_us
        hold_us = self.cfg.minbuf_rtts * rtt
        advanced = False
        while True:
            skb = self.sock.write_queue.peek()
            if skb is None or skb.tries == 0:
                break  # drained, or never transmitted yet
            age = now - skb.last_sent_us
            if age < hold_us:
                if (self.cfg.early_probes and self.cfg.probes_enabled
                        and self.cfg.reliable_release
                        and age >= self.cfg.early_probe_fraction * hold_us):
                    lacking = self._lacking_for(skb.end_seq)
                    if lacking:
                        self._probe(lacking, skb.end_seq, now)
                break
            if self.cfg.reliable_release and not self._membership_quorum():
                break  # too early in the transfer: receivers still joining
            boundary = skb.end_seq
            complete = self._info_complete(boundary)
            if not skb.release_checked:
                if self.cfg.track_membership:
                    self.release.record(complete)
                skb.release_checked = True
            if self.cfg.reliable_release:
                if not complete:
                    if self.cfg.probes_enabled:
                        lacking = self._lacking_for(boundary)
                        self._probe(lacking, boundary, now)
                    self.release.stall_us += JIFFY_US
                    break
            # release
            if self.release_hook is not None:
                self.release_hook(self, skb)
            self.sock.write_queue.dequeue()
            skb.retrans_pending = False
            self.snd_wnd = boundary
            advanced = True
        if advanced:
            self.sock.write_space.fire()
            if self.drained:
                self._on_drained()

    def _release_watermark(self) -> int:
        """Free send-buffer space below which release is attempted."""
        return 2 * (self.cfg.mss + SKB_OVERHEAD)

    def _membership_quorum(self) -> bool:
        expected = self.cfg.expected_receivers
        if expected is None:
            return True
        # members that already left count toward the quorum having been met
        return (self.members.joins) >= expected

    def _info_complete(self, boundary: int) -> bool:
        return self.members.all_have(boundary)

    def _lacking_for(self, boundary: int) -> list[Member]:
        return self.members.lacking(boundary)

    def _probe(self, lacking: list[Member], boundary: int, now: int) -> None:
        if not lacking:
            return
        rtt = self.rtt.rtt_us
        threshold = self.cfg.mcast_probe_threshold
        if threshold is not None and len(lacking) >= threshold:
            # future-work (2): one multicast probe instead of a storm
            eligible = [m for m in lacking
                        if now - m.last_probe_us >=
                        rtt * (self.cfg.probe_backoff ** min(m.probe_tries, 8))]
            if not eligible:
                return
            skb = self._control_skb(PacketType.PROBE, seq=boundary)
            self.host.ip_send(skb, self.sock.daddr)
            self.stats.probes_sent += 1
            self.release.probes_triggered += 1
            for m in lacking:
                self._note_probe(m, now)
            return
        for m in lacking:
            if (m.probe_tries >= self.cfg.member_timeout_probes and
                    now - m.last_feedback_us > self.cfg.member_timeout_us):
                # unresponsive member: evict so it cannot block release
                self.members.remove(m.addr)
                self.rtt.forget(m.addr)
                self.stats.member_timeouts += 1
                continue
            interval = rtt * (self.cfg.probe_backoff ** min(m.probe_tries, 8))
            if now - m.last_probe_us < interval:
                continue
            skb = self._control_skb(PacketType.PROBE, seq=boundary)
            self.host.ip_send(skb, m.addr)
            self.stats.probes_sent += 1
            self.release.probes_triggered += 1
            self._note_probe(m, now)

    def _note_probe(self, m: Member, now: int) -> None:
        if m.probe_sent_us >= 0:
            m.probe_ambiguous = True   # Karn: a re-probe poisons the sample
        else:
            m.probe_sent_us = now
            m.probe_ambiguous = False
        m.last_probe_us = now
        m.probe_tries += 1

    # ------------------------------------------------------------------
    # retransmitter (retrans_timer)

    def _retrans_tick(self) -> None:
        self._pump(self.sim.now)
        self._advance_window(self.sim.now)

    def _queue_retransmission(self, start: int, end: int) -> None:
        """Queue every buffered skb overlapping [start, end).

        A segment is not retransmitted more often than once per RTT (and
        no faster than once per jiffy): duplicate NAKs for a repair that
        is already in flight must not multiply the repair traffic.
        """
        end = seq_min(end, self.snd_nxt)
        now = self.sim.now
        pace = max(self.rtt.rtt_us, JIFFY_US)
        queued = False
        # start at the skb holding ``start`` rather than walking up to it
        for skb in self.sock.write_queue.iter_from(start):
            if seq_geq(skb.seq, end):
                break
            if seq_leq(skb.end_seq, start):
                continue
            if skb.tries == 0:
                break  # not sent yet; the normal path will cover it
            if skb.tries > 1 and now - skb.last_sent_us < pace:
                self.repairs_deflected += 1
                continue  # a repair is already in flight; don't multiply
            if not skb.retrans_pending:
                skb.retrans_pending = True
                tap = self.sim.tap
                if tap is not None:
                    # a seam fact: the NAK (or timer) being processed
                    # asked for this repair, which goes out later from
                    # a transmit-timer tick
                    tap("repair", self.host.addr, skb)
                self._retrans.append(skb)
                queued = True
        if queued and not self.retrans_timer.pending:
            self.retrans_timer.mod_after(self.cfg.min_rtt_us)

    # ------------------------------------------------------------------
    # keepalive controller (ka_timer)

    def _keepalive_tick(self) -> None:
        if self.finished:
            return
        now = self.sim.now
        idle = now - self._last_activity_us
        if idle >= self._ka_interval_us:
            # keepalives carry the last *transmitted* sequence number
            # (paper section 2) -- never queued-but-unsent backlog, which
            # would make receivers NAK data that was never on the wire
            skb = self._control_skb(PacketType.KEEPALIVE,
                                    seq=self._highest_sent_end)
            self.host.ip_send(skb, self.sock.daddr)
            self.stats.keepalives_sent += 1
            self._ka_interval_us = min(self._ka_interval_us * 2,
                                       self.cfg.keepalive_max_us)
            self.ka_timer.mod_after(self._ka_interval_us)
        else:
            self.ka_timer.mod_after(self._ka_interval_us - idle)

    # ------------------------------------------------------------------
    # feedback processor (hrmc_master_rcv)

    def segment_received(self, skb: SKBuff, src: str) -> None:
        ptype = skb.ptype
        now = self.sim.now
        if ptype == PacketType.JOIN:
            self._on_join(skb, src, now)
        elif ptype == PacketType.LEAVE:
            self._on_leave(skb, src)
        elif ptype == PacketType.NAK:
            self._on_nak(skb, src, now)
        elif ptype == PacketType.CONTROL:
            self._on_control(skb, src, now)
        elif ptype == PacketType.UPDATE:
            self._on_update(skb, src, now)
        # DATA echoes (local-recovery repairs) and anything else: ignore

    def _take_probe_sample(self, src: str, now: int) -> None:
        m = self.members.get(src)
        if m is None or m.probe_sent_us < 0:
            return
        if not m.probe_ambiguous:
            self.rtt.sample(src, now - m.probe_sent_us)
        m.probe_sent_us = -1
        m.probe_ambiguous = False
        m.probe_tries = 0

    def _on_join(self, skb: SKBuff, src: str, now: int) -> None:
        self.stats.joins_rcvd += 1
        if self.cfg.track_membership:
            member = self.members.add(src, skb.seq, now)
            member.have_info = True
        # the JOIN echoes (in rate_adv) the seq of the data packet that
        # triggered it; a first-transmission match yields an RTT sample
        echo = skb.rate_adv
        for queued in self.sock.write_queue:
            if seq_leq(queued.seq, echo) and seq_lt(echo, queued.end_seq):
                if queued.tries == 1:
                    self.rtt.sample(src, now - queued.last_sent_us)
                break
            if seq_gt(queued.seq, echo):
                break
        resp = self._control_skb(PacketType.JOIN_RESPONSE, seq=self.snd_nxt)
        self.host.ip_send(resp, src)
        self._kick()

    def _on_leave(self, skb: SKBuff, src: str) -> None:
        self.stats.leaves_rcvd += 1
        self.members.remove(src)
        self.rtt.forget(src)
        resp = self._control_skb(PacketType.LEAVE_RESPONSE, seq=self.snd_nxt)
        self.host.ip_send(resp, src)
        self._kick()

    def _on_nak(self, skb: SKBuff, src: str, now: int) -> None:
        self.stats.naks_rcvd += 1
        self._take_probe_sample(src, now)
        if self.cfg.track_membership:
            # a NAK's seq is the requested range start; the receiver's
            # next expected sequence number rides in rate_adv
            self.members.update_feedback(src, skb.rate_adv, now)
        start = skb.seq
        end = seq_add(skb.seq, max(1, skb.length))
        if seq_lt(start, self.snd_wnd):
            # requested data is (at least partly) gone from the buffer
            self.stats.nak_errs_sent += 1
            self.stats.reliability_violations += 1
            err = self._control_skb(PacketType.NAK_ERR, seq=self.snd_wnd)
            self.host.ip_send(err, src)
            start = self.snd_wnd
            if seq_geq(start, end):
                return
        if seq_geq(start, self._recover_seq):
            # a fresh loss event, not more fallout from the last one
            if self.rate.on_loss_signal(now, self.rtt.rtt_us):
                self._recover_seq = self.snd_nxt
                self.loss_events += 1
        self._queue_retransmission(start, end)
        self._kick()

    def _on_control(self, skb: SKBuff, src: str, now: int) -> None:
        self._take_probe_sample(src, now)
        if self.cfg.track_membership:
            self.members.update_feedback(src, skb.seq, now)
        rtt = self.rtt.rtt_us
        if skb.flags & URG:
            self.stats.urgent_requests_rcvd += 1
            self.rate.on_urgent(now, rtt, self.cfg.urgent_stop_rtts)
            self._budget = 0.0
        else:
            self.stats.rate_requests_rcvd += 1
            self.rate.on_loss_signal(now, rtt)
            self.rate.on_suggestion(skb.rate_adv)
        self._kick()

    def _on_update(self, skb: SKBuff, src: str, now: int) -> None:
        self.stats.updates_rcvd += 1
        self._take_probe_sample(src, now)
        if self.cfg.track_membership:
            self.members.update_feedback(src, skb.seq, now)
        self._kick()

    # ------------------------------------------------------------------
    # helpers

    def _control_skb(self, ptype: PacketType, *, seq: int,
                     flags: int = 0) -> SKBuff:
        return SKBuff(sport=self.sock.num, dport=self.sock.dport, seq=seq,
                      ptype=ptype, length=0, rate_adv=self.rate.rate_bps,
                      flags=flags, tries=1)

    def _kick(self) -> None:
        """Re-evaluate window state promptly after feedback."""
        if self.finished:
            return
        self._advance_window(self.sim.now)
        if self._retrans and not self.retrans_timer.pending:
            self.retrans_timer.mod_after(self.cfg.min_rtt_us)

    def _on_drained(self) -> None:
        self.sock.state_change.fire()
        if self.closing and not self.finished:
            self.finished = True
            self.stop()
