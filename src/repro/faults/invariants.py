"""Always-on protocol-invariant checking.

The :class:`InvariantChecker` subscribes to the packet seam of a
:class:`~repro.trace.tracer.PacketTracer` and re-asserts the protocol's
safety properties after every segment sent or received, on every
watched endpoint:

* **Release safety** -- with reliable release enabled, the sender never
  releases a byte below some current member's next-expected sequence
  number (checked at the release point itself, via the sender's
  ``release_hook``, while the membership evidence is intact), and only
  ever releases the window head.
* **Stream safety** -- each receiver's reassembled stream is ordered
  and gap-free except for holes explicitly accounted to ``lost_bytes``
  (the NAK_ERR escape hatch); ``rcv_nxt``/``rcv_wnd`` are monotone and
  the window never exceeds its advertised size.
* **NAK sanity** -- no pending NAK range is empty, references data
  already reassembled or overlaps a segment parked out of order (a
  receiver asks only for bytes it does not hold); no queued
  retransmission references data the sender has released.
* **Accounting** -- send-buffer charge and the rate budget never go
  negative; the repair cache respects its byte bound; window spans are
  coherent (``snd_wnd``/``snd_una`` never pass the feedback marks that
  justify them, on the baselines too).

A failed assertion raises :class:`InvariantViolation` carrying the most
recent trace events, so a chaos run dies at the first bad state with
the packet history that produced it, not at end-of-run verification.
"""

from __future__ import annotations

from typing import Optional

from repro.core.seq import seq_gt, seq_lt, seq_sub
from repro.trace.tracer import PacketTracer

__all__ = ["InvariantChecker", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A protocol safety property failed; carries the trace tail."""

    def __init__(self, message: str, trace: Optional[list] = None):
        self.violation = message
        self.trace = list(trace or [])
        if self.trace:
            lines = "\n".join(
                f"  t={e.t_us:>10} {e.host:>10} {e.direction} "
                f"{e.type_name:<14} seq={e.seq} len={e.length} "
                f"tries={e.tries}" for e in self.trace)
            message = f"{message}\nlast {len(self.trace)} trace events:\n" \
                      f"{lines}"
        super().__init__(message)


class InvariantChecker:
    """Attach with ``InvariantChecker(tracer)`` before the run starts;
    register endpoints with :meth:`watch_sender` / :meth:`watch_receiver`
    (transports of crashed hosts must be :meth:`forget`-ten -- a dead
    kernel's state is not required to be coherent)."""

    #: expensive whole-structure audits run every this many events
    AUDIT_EVERY = 64
    #: trace-tail length attached to violations
    TRACE_TAIL = 16

    def __init__(self, tracer: PacketTracer):
        self.tracer = tracer
        self.checks = 0
        self._senders: list = []
        self._receivers: list = []
        self._last: dict[int, tuple[int, int]] = {}   # id -> (rcv_nxt, rcv_wnd)
        self._hooked: set[int] = set()
        tracer.subscribe(self._on_packet)

    # -- registration ---------------------------------------------------

    def watch_sender(self, transport) -> None:
        self._senders.append(transport)
        self._install_release_hook(transport)

    def watch_receiver(self, transport) -> None:
        self._receivers.append(transport)

    def forget(self, transport) -> None:
        if transport in self._senders:
            self._senders.remove(transport)
        if transport in self._receivers:
            self._receivers.remove(transport)
        self._last.pop(id(transport), None)

    def _install_release_hook(self, transport) -> None:
        sender = getattr(transport, "sender", None)
        if sender is None or id(sender) in self._hooked:
            return
        sender.release_hook = self._on_release
        self._hooked.add(id(sender))

    # -- event pump ---------------------------------------------------

    def _on_packet(self, now: int, fact: str, where: str, pkt) -> None:
        """Seam subscriber: re-check after every segment a watched host
        sent or received (a drop changes no endpoint's state)."""
        if fact != "tx" and fact != "rx":
            return
        self.checks += 1
        audit = (self.checks % self.AUDIT_EVERY) == 0
        for t in self._senders:
            self._check_sender(t, audit)
        for t in self._receivers:
            self._check_receiver(t, audit)

    def final_check(self) -> None:
        """One full audit pass; call after the simulation ends."""
        self.checks += 1
        for t in self._senders:
            self._check_sender(t, audit=True)
        for t in self._receivers:
            self._check_receiver(t, audit=True)

    def _fail(self, message: str) -> None:
        raise InvariantViolation(message,
                                 self.tracer.recent(self.TRACE_TAIL))

    # -- sender-side properties ----------------------------------------

    def _check_sender(self, t, audit: bool) -> None:
        # HRMC/RMC transports hold the role object in .sender (created
        # lazily at connect); baselines flag themselves with .is_sender
        sender = getattr(t, "sender", None)
        if sender is not None:
            self._check_hrmc_sender(t, sender, audit)
        elif getattr(t, "is_sender", False):
            if hasattr(t, "_acked"):
                self._check_ack_sender(t)
            elif hasattr(t, "_marks"):
                self._check_polling_sender(t)

    def _check_hrmc_sender(self, t, sender, audit: bool) -> None:
        self._install_release_hook(t)
        sock = sender.sock
        if sock.wmem_free() < 0:
            self._fail(f"{sock.name}: send-buffer charge exceeds sndbuf "
                       f"(wmem_free={sock.wmem_free()})")
        if sender._budget < -1e-6:
            self._fail(f"{sock.name}: rate budget negative "
                       f"({sender._budget:.3f})")
        self._check_write_queue(sock, sender.snd_wnd, sender.snd_nxt,
                                head_at_wnd=True)
        for skb in sender._retrans:
            if skb.retrans_pending and seq_lt(skb.seq, sender.snd_wnd):
                self._fail(
                    f"{sock.name}: queued retransmission references "
                    f"released data (seq={skb.seq} < snd_wnd="
                    f"{sender.snd_wnd})")
        for m in sender.members:
            if seq_gt(m.next_expected, sender.snd_nxt):
                self._fail(
                    f"{sock.name}: member {m.addr} expects "
                    f"{m.next_expected}, beyond snd_nxt={sender.snd_nxt}")
        if audit:
            try:
                sender.members.check_consistency()
            except AssertionError as exc:
                self._fail(f"{sock.name}: member table corrupt: {exc}")

    def _check_write_queue(self, sock, wnd: int, nxt: int, *,
                           head_at_wnd: bool) -> None:
        cursor = None
        for skb in sock.write_queue:
            if cursor is None:
                cursor = skb.seq
                if head_at_wnd and skb.seq != wnd:
                    self._fail(f"{sock.name}: write-queue head seq="
                               f"{skb.seq} != window edge {wnd}")
                if not head_at_wnd and seq_gt(wnd, skb.end_seq):
                    self._fail(f"{sock.name}: write-queue head "
                               f"[{skb.seq},{skb.end_seq}) fully below "
                               f"window edge {wnd}")
            elif skb.seq != cursor:
                self._fail(f"{sock.name}: write queue not contiguous "
                           f"(gap/overlap at seq={skb.seq}, expected "
                           f"{cursor})")
            cursor = skb.end_seq
        if cursor is not None and cursor != nxt:
            self._fail(f"{sock.name}: write-queue tail ends at {cursor}, "
                       f"snd_nxt={nxt}")

    def _on_release(self, sender, skb) -> None:
        """Runs at the sender's release point, before the dequeue."""
        sock = sender.sock
        if skb.tries == 0:
            self._fail(f"{sock.name}: releasing never-transmitted data "
                       f"seq={skb.seq}")
        if skb.seq != sender.snd_wnd:
            self._fail(f"{sock.name}: non-head release (seq={skb.seq}, "
                       f"snd_wnd={sender.snd_wnd})")
        cfg = sender.cfg
        if cfg.reliable_release:
            if not sender._membership_quorum():
                self._fail(f"{sock.name}: release before the expected "
                           f"membership assembled")
            lagging = [m for m in sender.members
                       if seq_lt(m.next_expected, skb.end_seq)]
            if lagging:
                worst = min(m.next_expected for m in lagging)
                self._fail(
                    f"{sock.name}: releasing [{skb.seq},{skb.end_seq}) "
                    f"but {len(lagging)} member(s) only have up to "
                    f"{worst} ({', '.join(m.addr for m in lagging[:4])})")

    def _check_ack_sender(self, t) -> None:
        for addr, acked in t._acked.items():
            if seq_gt(t.snd_una, acked):
                self._fail(
                    f"{t.sock.name}: snd_una={t.snd_una} passed "
                    f"{addr}'s cumulative ack {acked}")
        if t.sock.wmem_free() < 0:
            self._fail(f"{t.sock.name}: send-buffer charge exceeds sndbuf")
        self._check_write_queue(t.sock, t.snd_una, t.snd_nxt,
                                head_at_wnd=False)

    def _check_polling_sender(self, t) -> None:
        for addr, mark in t._marks.items():
            if seq_gt(t.snd_una, mark):
                self._fail(
                    f"{t.sock.name}: snd_una={t.snd_una} passed "
                    f"{addr}'s reported mark {mark}")
        if t.sock.wmem_free() < 0:
            self._fail(f"{t.sock.name}: send-buffer charge exceeds sndbuf")
        self._check_write_queue(t.sock, t.snd_una, t.snd_nxt,
                                head_at_wnd=True)

    # -- receiver-side properties ----------------------------------------

    def _check_receiver(self, t, audit: bool) -> None:
        receiver = getattr(t, "receiver", None)
        if receiver is not None:
            if not receiver._closed:
                self._check_hrmc_receiver(t, receiver, audit)
            return
        rx = getattr(t, "rx", None)
        if rx is not None:
            self._check_reassembly(t.sock, rx.rcv_nxt, rx.rcv_wnd,
                                   lost_bytes=0, key=id(t))

    def _check_hrmc_receiver(self, t, r, audit: bool) -> None:
        sock = r.sock
        self._check_reassembly(sock, r.rcv_nxt, r.rcv_wnd,
                               lost_bytes=r.lost_bytes, key=id(t))
        # +1: the FIN occupies one phantom sequence byte past the window
        span = seq_sub(r.rcv_nxt, r.rcv_wnd)
        if span > r.rcv_wnd_size + 1:
            self._fail(f"{sock.name}: window span {span} exceeds "
                       f"advertised size {r.rcv_wnd_size}")
        for rng in r.naks:
            if rng.length <= 0:
                self._fail(f"{sock.name}: empty NAK range "
                           f"[{rng.start},{rng.end})")
            if seq_lt(rng.start, r.rcv_nxt):
                self._fail(
                    f"{sock.name}: NAK range [{rng.start},{rng.end}) "
                    f"references reassembled data (rcv_nxt={r.rcv_nxt})")
            for seq, parked in r._ooo.items():
                if seq_lt(seq, rng.end) and seq_gt(parked.end_seq, rng.start):
                    self._fail(
                        f"{sock.name}: NAK range [{rng.start},{rng.end}) "
                        f"requests parked data [{seq},{parked.end_seq})")
        if r._repair_cache_bytes > r.cfg.repair_cache_bytes:
            self._fail(
                f"{sock.name}: repair cache holds "
                f"{r._repair_cache_bytes} bytes, bound is "
                f"{r.cfg.repair_cache_bytes}")
        if audit:
            actual = sum(e.length for e in r._repair_cache.values())
            if actual != r._repair_cache_bytes:
                self._fail(
                    f"{sock.name}: repair-cache accounting drift "
                    f"(counter={r._repair_cache_bytes}, actual={actual})")

    def _check_reassembly(self, sock, rcv_nxt: int, rcv_wnd: int,
                          *, lost_bytes: int, key: int) -> None:
        prev = self._last.get(key)
        if prev is not None:
            p_nxt, p_wnd = prev
            if seq_lt(rcv_nxt, p_nxt):
                self._fail(f"{sock.name}: rcv_nxt moved backwards "
                           f"({p_nxt} -> {rcv_nxt})")
            if seq_lt(rcv_wnd, p_wnd):
                self._fail(f"{sock.name}: rcv_wnd moved backwards "
                           f"({p_wnd} -> {rcv_wnd})")
        self._last[key] = (rcv_nxt, rcv_wnd)
        if seq_gt(rcv_wnd, rcv_nxt):
            self._fail(f"{sock.name}: rcv_wnd={rcv_wnd} ahead of "
                       f"rcv_nxt={rcv_nxt}")
        cursor = None
        gap_total = 0
        for skb in sock.receive_queue:
            if cursor is not None:
                if seq_lt(skb.seq, cursor):
                    self._fail(f"{sock.name}: receive queue out of order "
                               f"(seq={skb.seq} after byte {cursor})")
                gap_total += seq_sub(skb.seq, cursor)
            cursor = skb.end_seq
        if gap_total > lost_bytes:
            self._fail(f"{sock.name}: {gap_total} bytes of unexplained "
                       f"gaps in the delivered stream (lost_bytes="
                       f"{lost_bytes})")
        if cursor is not None and seq_gt(cursor, rcv_nxt):
            self._fail(f"{sock.name}: receive queue extends to {cursor}, "
                       f"past rcv_nxt={rcv_nxt}")
