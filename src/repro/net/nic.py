"""Network interface model.

Reproduces the two behaviours of real 1999-era cards that matter to the
paper's results:

* **Transmit path** -- a finite device queue (Linux ``txqueuelen``,
  ~100 packets) drained at line rate.  The transmitter checks queue
  space per packet, so a full queue back-pressures the protocol rather
  than dropping, and in-flight data stays bounded.
* **Receive path** -- a finite RX ring drained by *host CPU*
  processing (150 us lower-layer + protocol cost per packet, from the
  paper's measurements).  When data arrives faster than the host can
  drain the ring, packets are dropped.  On a 100 Mbps wire a sustained
  back-to-back run longer than ~3 MB overflows a 768-slot ring, which
  reproduces the paper's Figure 13: NAKs appear only once send buffers
  exceed 1024 KB, and never at 10 Mbps where the wire rate is below the
  host's drain rate.

The interface also performs IP-multicast filtering (it accepts frames
for its unicast address and for any group it has joined) and can apply
an uncorrelated loss rate (the "network interface process" loss of the
paper's simulation study).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Protocol

from repro.net.addr import is_multicast
from repro.net.packet import NetPacket
from repro.sim.engine import Simulator
from repro.sim.rng import substream

__all__ = ["NetworkInterface", "MediumPort"]


class MediumPort(Protocol):
    """What a NIC needs from its attachment (shared link or pipe)."""

    def reserve(self, pkt: NetPacket) -> tuple[int, int]: ...

    def broadcast(self, pkt: NetPacket, sender: "NetworkInterface",
                  end_us: int) -> None: ...


def _no_rx_cost(pkt: NetPacket) -> int:
    return 0


class NetworkInterface:
    """A host's network interface.

    Parameters
    ----------
    rx_loss_rate:
        Probability of silently dropping an otherwise-deliverable
        incoming packet (the uncorrelated 10 % share of group loss in
        the simulation study).
    tx_ring / rx_ring:
        Ring sizes in packets.
    """

    def __init__(self, sim: Simulator, addr: str, *,
                 tx_ring: int = 100, rx_ring: int = 768,
                 rx_loss_rate: float = 0.0, seed: int = 0,
                 name: str = ""):
        self.sim = sim
        self.addr = addr
        self.name = name or f"nic-{addr}"
        self.tx_ring_cap = int(tx_ring)
        self.rx_ring_cap = int(rx_ring)
        self.rx_loss_rate = float(rx_loss_rate)
        self._rng = substream(seed, f"nic:{addr}")
        self._port: Optional[MediumPort] = None
        self._tx_queue: deque[NetPacket] = deque()
        self._tx_active = False
        self._groups: set[str] = set()
        self._rx_queue: deque[NetPacket] = deque()
        self._rx_active = False
        # set by the owning Host; a card with no host drains its RX
        # ring at no cost, one frame per engine event
        self.rx_handler: Optional[Callable[[NetPacket], None]] = None
        self.rx_cost_fn: Callable[[NetPacket], int] = _no_rx_cost
        self.cpu_run: Callable[..., object] = sim.call_after
        # drop counters
        self.rx_ring_drops = 0
        self.rx_loss_drops = 0
        # -- fault-injection hooks (repro.faults) ------------------------
        # Fault draws come from a dedicated substream so that arming a
        # fault never perturbs the structural ``rx_loss_rate`` sequence.
        self.powered = True
        self.fault_rx_drop_until = -1   # burst drop: drop all rx until t
        self.fault_rx_loss_rate = 0.0   # extra random rx loss
        self.fault_corrupt_rate = 0.0   # bit errors; host checksum drops
        self.fault_drops = 0
        self.fault_corruptions = 0
        self._fault_rng = substream(seed, f"fault:nic:{addr}")

    # -- wiring ---------------------------------------------------------

    def attach(self, port: MediumPort) -> None:
        self._port = port

    def join_group(self, group: str) -> None:
        # validated here, once, so the per-frame filter is a set lookup
        if not is_multicast(group):
            raise ValueError(f"{group!r} is not a multicast (class D) address")
        self._groups.add(group)

    def leave_group(self, group: str) -> None:
        self._groups.discard(group)

    def in_group(self, group: str) -> bool:
        return group in self._groups

    # -- power (host crash/restart) --------------------------------------

    def power_off(self) -> None:
        """Host crash: both rings lose their contents and the card goes
        deaf.  In-flight completion callbacks are disarmed by the
        head-identity guards in the done handlers."""
        self.powered = False
        self._tx_queue.clear()
        self._rx_queue.clear()
        self._tx_active = False
        self._rx_active = False

    def power_on(self) -> None:
        """Restart with empty rings (ring contents died with the host)."""
        self.powered = True

    # -- transmit path ---------------------------------------------------

    def tx_space(self) -> int:
        """Free TX-ring slots; the transmitter defers when this is 0."""
        return self.tx_ring_cap - len(self._tx_queue)

    def try_transmit(self, pkt: NetPacket) -> bool:
        """Queue a packet for transmission.  Returns False (and accepts
        nothing) when the ring is full -- the caller must retry later,
        mirroring driver back-pressure."""
        if self._port is None:
            raise RuntimeError(f"{self.name} not attached to a medium")
        if not self.powered:
            # a dead card accepts and loses the frame; the caller (a
            # crashed host's last scheduled work) must not spin on retry
            self.fault_drops += 1
            tap = self.sim.tap
            if tap is not None:
                tap("tx_nic_dead", self.addr, pkt)
            return True
        if len(self._tx_queue) >= self.tx_ring_cap:
            return False
        self._tx_queue.append(pkt)
        if not self._tx_active:
            self._tx_active = True
            self._tx_next()
        return True

    def _tx_next(self) -> None:
        if not self._tx_queue:
            self._tx_active = False
            return
        pkt = self._tx_queue[0]
        start, end = self._port.reserve(pkt)
        self.sim.call_at(end, self._tx_done, pkt, end)

    def _tx_done(self, pkt: NetPacket, end_us: int) -> None:
        if not self._tx_queue or self._tx_queue[0] is not pkt:
            return  # ring torn down (power_off) while this frame was in flight
        self._tx_queue.popleft()
        # stamp wire-departure time on the segment: "most recently sent"
        # in the window-release rule means when the packet left the host,
        # not when it entered the device queue
        try:
            pkt.segment.last_sent_us = self.sim.now
        except AttributeError:
            pass
        self._port.broadcast(pkt, self, end_us)
        self._tx_next()

    # -- receive path ------------------------------------------------

    def medium_deliver(self, pkt: NetPacket) -> None:
        """Called by the medium when a frame passes this interface."""
        if pkt.dst != self.addr and pkt.dst not in self._groups:
            return
        tap = self.sim.tap
        if not self.powered or self.sim.now < self.fault_rx_drop_until:
            self.fault_drops += 1
            if tap is not None:
                tap("nic_dead" if not self.powered else "nic_burst_drop",
                    self.addr, pkt)
            return
        if self.fault_rx_loss_rate > 0.0 and \
                self._fault_rng.random() < self.fault_rx_loss_rate:
            self.fault_drops += 1
            if tap is not None:
                tap("nic_fault_loss", self.addr, pkt)
            return
        if self.fault_corrupt_rate > 0.0 and \
                self._fault_rng.random() < self.fault_corrupt_rate:
            # flip bits in a private copy of the shared frame; the host
            # checksum drops it
            pkt = pkt.fork()
            pkt.corrupted = True
            self.fault_corruptions += 1
        if self.rx_loss_rate > 0.0 and self._rng.random() < self.rx_loss_rate:
            self.rx_loss_drops += 1
            if tap is not None:
                tap("rx_loss", self.addr, pkt)
            return
        self._rx_enqueue(pkt)

    def _rx_enqueue(self, pkt: NetPacket) -> None:
        if len(self._rx_queue) >= self.rx_ring_cap:
            self.rx_ring_drops += 1
            tap = self.sim.tap
            if tap is not None:
                tap("rx_ring_overflow", self.addr, pkt)
            return
        self._rx_queue.append(pkt)
        if not self._rx_active:
            # an idle ring starts its CPU work on this frame at once (the
            # same line ends _rx_done)
            self._rx_active = True
            self.cpu_run(self.rx_cost_fn(pkt), self._rx_done, pkt)

    def _rx_done(self, pkt: NetPacket) -> None:
        queue = self._rx_queue
        if not queue or queue[0] is not pkt:
            return  # ring torn down (power_off) while the CPU worked on it
        queue.popleft()
        if self.rx_handler is not None:
            self.rx_handler(pkt)
        if not queue:
            self._rx_active = False
            return
        pkt = queue[0]
        self.cpu_run(self.rx_cost_fn(pkt), self._rx_done, pkt)
