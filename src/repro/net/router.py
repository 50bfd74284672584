"""Routers and point-to-point pipes.

The paper's simulation assigns each router "a network speed, a queue
size, and a loss rate"; multicast packets "are duplicated within a
router as necessary".  Here a :class:`Router` performs the loss draw
(this is the *correlated* loss -- the copy is dropped before
duplication, so every downstream receiver misses it) and routes the
packet into :class:`Pipe` objects which model the speed / queue-size
part: FIFO service at a fixed bandwidth, a finite queue, and a
propagation delay.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addr import is_multicast
from repro.net.packet import NetPacket
from repro.net.nic import NetworkInterface
from repro.sim.engine import Simulator, US_PER_SEC
from repro.sim.rng import substream

__all__ = ["Pipe", "Router"]

FORWARD_DELAY_US = 10      # a router's store-and-forward time


class Pipe:
    """A unidirectional point-to-point transmission line.

    Service discipline: packets are serialized at ``bandwidth_bps``;
    at most ``queue_limit`` packets may be waiting for the line (drops
    beyond that -- a router output queue); delivery happens
    ``prop_delay_us`` after the last bit leaves.

    The downstream end is any object with an ``ingress(pkt)`` method
    (a Router) or a :class:`NetworkInterface` (delivered via
    ``medium_deliver``).
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float, *,
                 prop_delay_us: int = 0, queue_limit: int = 1000,
                 loss_rate: float = 0.0, seed: int = 0, name: str = ""):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.prop_delay_us = int(prop_delay_us)
        self.queue_limit = int(queue_limit)
        self.loss_rate = float(loss_rate)
        self.name = name or "pipe"
        self._rng = substream(seed, f"pipe:{name}")
        self._dst: Optional[Callable[[NetPacket], None]] = None
        self._busy_until = 0
        self._queued = 0
        # -- fault-injection hooks (repro.faults) ------------------------
        self.up = True                 # flap: a down pipe drops everything
        self.fault_loss_rate = 0.0     # degrade: extra loss, own substream
        self._fault_rng = substream(seed, f"fault:pipe:{self.name}")

    def _lost(self, pkt: NetPacket) -> bool:
        """Draw the flap, fault-loss and structural-loss fates of one
        packet entering the line; True (and reported) if it dies."""
        if not self.up:
            why = "pipe_down"
        elif self.fault_loss_rate > 0.0 and \
                self._fault_rng.random() < self.fault_loss_rate:
            why = "pipe_fault_loss"
        elif self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            why = "pipe_loss"
        else:
            return False
        self.sim.drop(why, self.name, pkt)
        return True

    def connect(self, dst) -> None:
        """Attach the downstream end (Router or NetworkInterface)."""
        if isinstance(dst, NetworkInterface):
            self._dst = dst.medium_deliver
        else:
            self._dst = dst.ingress

    def tx_time_us(self, pkt: NetPacket) -> int:
        return max(1, round(pkt.wire_bits * US_PER_SEC / self.bandwidth_bps))

    def send(self, pkt: NetPacket) -> None:
        if self._dst is None:
            raise RuntimeError(f"{self.name} not connected")
        if self._lost(pkt):
            return
        if self._queued >= self.queue_limit:
            self.sim.drop("pipe_queue_overflow", self.name, pkt)
            return
        self._queued += 1
        start = max(self.sim.now, self._busy_until)
        end = start + self.tx_time_us(pkt)
        self._busy_until = end
        self.sim.call_at(end + self.prop_delay_us, self._deliver, pkt)

    def _deliver(self, pkt: NetPacket) -> None:
        self._queued -= 1
        self._dst(pkt)

    # NIC MediumPort interface, so a NIC can sit directly on a pipe pair
    def reserve(self, pkt: NetPacket) -> tuple[int, int]:
        start = max(self.sim.now, self._busy_until)
        end = start + self.tx_time_us(pkt)
        self._busy_until = end
        return start, end

    def broadcast(self, pkt: NetPacket, sender: NetworkInterface,
                  end_us: int) -> None:
        if self._dst is None:
            raise RuntimeError(f"{self.name} not connected")
        if self._lost(pkt):
            return
        self.sim.call_at(end_us + self.prop_delay_us, self._dst, pkt)


class Router:
    """A store-and-forward router with multicast duplication.

    ``loss_rate`` is applied once per *incoming* packet, before
    duplication -- the correlated loss of the paper's study (90 % of a
    characteristic group's loss happens here).
    """

    def __init__(self, sim: Simulator, *, loss_rate: float = 0.0,
                 seed: int = 0, name: str = "r"):
        self.sim = sim
        self.name = name
        self.loss_rate = float(loss_rate)
        self._rng = substream(seed, f"router:{name}")
        self._unicast: dict[str, Pipe] = {}
        self._default: Optional[Pipe] = None
        self._mcast: dict[str, list[Pipe]] = {}

    # -- table management --------------------------------------------

    def add_route(self, dst_addr: str, pipe: Pipe) -> None:
        self._unicast[dst_addr] = pipe

    def set_default_route(self, pipe: Pipe) -> None:
        self._default = pipe

    def mcast_subscribe(self, group: str, pipe: Pipe) -> None:
        pipes = self._mcast.setdefault(group, [])
        if pipe not in pipes:
            pipes.append(pipe)

    def mcast_unsubscribe(self, group: str, pipe: Pipe) -> None:
        pipes = self._mcast.get(group)
        if pipes and pipe in pipes:
            pipes.remove(pipe)
            if not pipes:
                del self._mcast[group]

    # -- forwarding ---------------------------------------------------

    def ingress(self, pkt: NetPacket) -> None:
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            # correlated loss: the copy dies before duplication, so
            # every downstream receiver misses it
            self.sim.drop("router_loss", self.name, pkt)
            return
        self.sim.call_after(FORWARD_DELAY_US, self._forward, pkt)

    def _forward(self, pkt: NetPacket) -> None:
        if is_multicast(pkt.dst):
            pipes = self._mcast.get(pkt.dst, ())
            if not pipes:
                self.sim.drop("no_route", self.name, pkt)
                return
            # every pipe carries the same frame
            for pipe in pipes:
                pipe.send(pkt)
        else:
            pipe = self._unicast.get(pkt.dst, self._default)
            if pipe is None:
                self.sim.drop("no_route", self.name, pkt)
                return
            pipe.send(pkt)
