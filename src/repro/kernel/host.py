"""Host model: one CPU, one NIC, transport dispatch.

The paper measured, on the 300 MHz testbed machines, an H-RMC protocol
processing time of ``(10 + 0.025*l)`` microseconds for a packet of
length ``l`` and a lower-layer (IP + driver + interrupt) time of 150
microseconds, and injected those delays into its simulator's host
processes.  We do the same, with one refinement that the serialized
host process implies: all processing -- transmit-side protocol work,
receive-side protocol work, and application copies -- competes for a
single CPU.  On the receive path the full ``150 + (10 + 0.025*l)`` cost
is charged before the protocol sees a packet (interrupt + IP + H-RMC
all serialize); on the transmit path only the protocol cost is charged,
since the lower-layer work overlaps with NIC DMA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable

from repro.net.packet import NetPacket
from repro.net.nic import NetworkInterface
from repro.net.topology import Network
from repro.kernel.skbuff import SKBuff
from repro.sim.engine import Simulator

__all__ = ["CostModel", "Host", "HostClock", "Transport"]


class HostClock:
    """A host's view of the jiffy-timer machinery.

    Duck-types the slice of :class:`Simulator` that :class:`~repro.sim.timer.Timer`
    uses (``now`` / ``call_at`` / ``cancel``) so that all of a host's
    protocol timers can be driven through a per-host object.  The fault
    layer uses this to model clock trouble without touching global sim
    time: ``skew`` stretches (or shrinks) every programmed timer delay
    like a drifting oscillator, and ``stalled_until`` defers firings the
    way a wedged timer interrupt would.  Reading ``now`` is unaffected
    -- timestamps stay honest; only *when timers fire* shifts.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self.skew = 1.0          # multiplier on programmed timer delays
        self.stalled_until = 0   # no timer may fire before this sim time

    @property
    def now(self) -> int:
        return self._sim.now

    def call_at(self, when: int, callback: Callable, *args):
        if self.skew != 1.0:
            delay = max(0, int(when) - self._sim.now)
            when = self._sim.now + int(round(delay * self.skew))
        if when < self.stalled_until:
            when = self.stalled_until
        return self._sim.call_at(max(int(when), self._sim.now),
                                 callback, *args)

    def call_after(self, delay: int, callback: Callable, *args):
        return self.call_at(self._sim.now + max(0, int(delay)),
                            callback, *args)

    def cancel(self, entry) -> None:
        self._sim.cancel(entry)


@dataclass(frozen=True)
class CostModel:
    """Per-packet host processing costs (microseconds)."""

    lower_layer_us: float = 150.0
    per_packet_us: float = 10.0
    per_byte_us: float = 0.025
    copy_per_byte_us: float = 0.005   # recvmsg/sendmsg copy_to/from_user
    syscall_us: float = 10.0
    # rx_cost and copy_cost by size, filled on first use: a run sees a
    # handful of packet and read sizes and a frozen instance's entries
    # never go stale
    _rx_memo: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _copy_memo: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def proto_cost(self, nbytes: int) -> int:
        return round(self.per_packet_us + self.per_byte_us * nbytes)

    #: transmit side: protocol work only (see the module docstring)
    tx_cost = proto_cost

    def rx_cost(self, nbytes: int) -> int:
        """Serialized CPU cost of receiving one packet: interrupt + IP
        (the measured 150 us lower-layer time) plus protocol processing.
        This is what bounds how fast a host can drain its RX ring --
        about 5 000 full-size packets/s on the 300 MHz testbed CPU,
        i.e. roughly 60 Mbps of sustained goodput."""
        try:
            return self._rx_memo[nbytes]
        except KeyError:
            cost = self._rx_memo[nbytes] = \
                round(self.lower_layer_us) + self.proto_cost(nbytes)
            return cost

    def copy_cost(self, nbytes: int) -> int:
        try:
            return self._copy_memo[nbytes]
        except KeyError:
            cost = self._copy_memo[nbytes] = \
                round(self.syscall_us + self.copy_per_byte_us * nbytes)
            return cost


class _CpuWork:
    """What ``yield from host.cpu_exec(c)`` yields: ``Process._resume``
    arms it, so the process resumes *as* the CPU-completion event."""

    __slots__ = ("_host", "_cost_us")

    def __init__(self, host: "Host", cost_us: int):
        self._host = host
        self._cost_us = cost_us

    def _arm(self, proc) -> None:
        self._host.cpu_run(self._cost_us, proc._resume, None)


class Transport:
    """Interface a transport protocol presents to the host/socket layer.

    Concrete protocols (H-RMC, RMC, the baselines) subclass this.
    """

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        raise NotImplementedError

    def unbound(self) -> None:
        """Called when the host releases the protocol's port."""


class Host:
    """A participating machine: CPU + NIC + bound transports."""

    def __init__(self, sim: Simulator, network: Network,
                 nic: NetworkInterface, *, cost: CostModel | None = None,
                 name: str = ""):
        self.sim = sim
        self.network = network
        self.nic = nic
        self.cost = cost or CostModel()
        self.name = name or f"host-{nic.addr}"
        self.addr = nic.addr
        self.clock = HostClock(sim)
        self.crashed = False
        self._cpu_busy_until = 0
        self._ports: dict[int, Transport] = {}
        self._pending_xmit = 0   # charged to CPU, not yet on the NIC
        self.tx_ring_busy_drops = 0
        nic.rx_handler = self._packet_arrived
        nic.rx_cost_fn = self._rx_cost
        nic.cpu_run = self.cpu_run

    # -- CPU ------------------------------------------------------------

    def cpu_run(self, cost_us: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after ``cost_us`` of CPU time, serialized
        with all other work on this host.  Arguments ride the engine
        entry itself so per-packet hot paths need no closure
        allocation.

        Two or three of these run per packet per host, so the entry is
        built here rather than by a call to ``Simulator.call_at``: the
        same ``[time, order, callback, args, followers]`` list, at an
        ``int`` time never earlier than now, joining the engine's tail
        by the same rule (DESIGN.md S1)."""
        sim = self.sim
        end = self._cpu_busy_until
        if end < sim.now:
            end = sim.now
        if cost_us > 0:
            end += int(cost_us)
        self._cpu_busy_until = end
        entry = [end, sim._order, fn, args, None]
        sim._order += 1
        if end == sim._tail_time and (
                end != sim.now or sim._tail[2] is not None):
            followers = sim._tail[4]
            if followers is None:
                sim._tail[4] = [entry]
            else:
                followers.append(entry)
            sim.joins += 1
        else:
            heappush(sim._heap, entry)
            sim._tail = entry
            sim._tail_time = end

    def _rx_cost(self, pkt: NetPacket) -> int:
        """The NIC's ``rx_cost_fn``; reads ``self.cost`` per packet, so
        a cost model replaced after construction takes effect.  A size
        already seen is read from the model's memo without a call."""
        cost = self.cost
        try:
            return cost._rx_memo[pkt.seg_bytes]
        except KeyError:
            return cost.rx_cost(pkt.seg_bytes)

    def cpu_exec(self, cost_us: int) -> tuple[_CpuWork]:
        """``yield from host.cpu_exec(c)`` inside an application process
        consumes ``c`` us of this host's CPU.  The one-element tuple is
        all ``yield from`` needs: the request goes out, the resume ends
        the iteration, and no generator is built per call."""
        return (_CpuWork(self, cost_us),)

    @property
    def cpu_busy_until(self) -> int:
        return self._cpu_busy_until

    # -- faults (repro.faults) ----------------------------------------

    def crash(self) -> None:
        """Power failure: the NIC rings lose their contents and the card
        goes deaf.  The caller (the fault injector) is responsible for
        killing this host's application processes and aborting its
        transports -- kernel state does not survive the crash."""
        self.crashed = True
        self.nic.power_off()

    def restart(self) -> None:
        """Power back on with cold rings and an idle CPU."""
        self.crashed = False
        self.nic.power_on()
        self._cpu_busy_until = self.sim.now

    def pause(self, duration_us: int) -> None:
        """Freeze the CPU for ``duration_us`` (an SMM excursion, a long
        interrupts-off section): all serialized host work -- protocol
        processing, RX drain, application copies -- is pushed past the
        pause window.  Timers still fire on time; their handlers queue
        behind the stall like real softirq work."""
        self._cpu_busy_until = max(self._cpu_busy_until,
                                   self.sim.now + max(0, int(duration_us)))

    # -- port dispatch -----------------------------------------------

    def bind(self, port: int, transport: Transport) -> None:
        if port in self._ports:
            raise ValueError(f"{self.name}: port {port} already bound")
        self._ports[port] = transport

    def unbind(self, port: int) -> None:
        transport = self._ports.pop(port, None)
        if transport is not None:
            transport.unbound()

    # -- packet I/O ----------------------------------------------------

    def ip_send(self, skb: SKBuff, dst_addr: str) -> None:
        """Queue a segment for transmission (cf. ``ip_build_and_send``).

        Charges transmit-side CPU, then hands the packet to the NIC.  A
        full TX ring at hand-off time drops the packet and counts it;
        well-behaved transmitters avoid this by bounding their bursts
        with :meth:`tx_space`.

        The wire size is the header plus the *actual payload carried*:
        control packets (e.g. NAKs) reuse the length field for range
        bookkeeping but carry no payload.
        """
        payload_bytes = skb.payload.length if skb.payload is not None else 0
        seg_bytes = 20 + payload_bytes
        pkt = NetPacket(self.addr, dst_addr, skb, seg_bytes)
        tap = self.sim.tap
        if tap is not None:
            tap("tx", self.addr, pkt)
        self._pending_xmit += 1
        self.cpu_run(self.cost.tx_cost(seg_bytes), self._xmit, pkt)

    def _xmit(self, pkt: NetPacket) -> None:
        self._pending_xmit -= 1
        if not self.nic.try_transmit(pkt):
            self.tx_ring_busy_drops += 1
            self.sim.drop("tx_ring_full", self.addr, pkt)

    def tx_space(self) -> int:
        """Device-queue slots not yet spoken for -- counts packets that
        have been charged to the CPU but not yet handed to the NIC, so
        well-behaved transmitters never overcommit the queue."""
        return max(0, self.nic.tx_space() - self._pending_xmit)

    def _packet_arrived(self, pkt: NetPacket) -> None:
        if self.crashed:
            # nothing is listening; the NIC guards make this rare
            self.sim.drop("host_crashed", self.addr, pkt)
            return
        if pkt.corrupted:
            # the header checksum (RFC 1071, over header+payload)
            # catches in-flight bit errors; damaged packets are dropped
            # here exactly like a failed hrmc checksum in the kernel
            self.sim.drop("checksum", self.addr, pkt)
            return
        tap = self.sim.tap
        if tap is not None:
            tap("rx", self.addr, pkt)
        skb = pkt.segment
        transport = self._ports.get(skb.dport)
        if transport is None:
            # IP took the packet in; no socket is bound to its port
            self.sim.drop("unroutable", self.addr, pkt)
            return
        transport.segment_received(skb, pkt.src)

    # -- multicast membership ---------------------------------------------

    def join_group(self, group: str) -> None:
        self.network.join_group(self.nic, group)

    def leave_group(self, group: str) -> None:
        self.network.leave_group(self.nic, group)
