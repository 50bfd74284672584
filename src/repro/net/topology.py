"""Topology builders.

Two network shapes cover everything in the paper's evaluation:

* :class:`EthernetLanTopology` -- the experimental testbed: every host
  on one shared 10/100 Mbps Ethernet segment (Figures 10-13).
* :class:`WanTreeTopology` -- the simulation study: the sender behind a
  loss-free backbone, receivers partitioned into *characteristic
  groups*, each behind its own router carrying the group's delay and
  90 % of its loss; the remaining 10 % is uncorrelated at each
  receiver's interface (Figures 3, 15, 16).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.link import SharedLink
from repro.net.nic import NetworkInterface
from repro.net.router import Pipe, Router
from repro.sim.engine import Simulator

__all__ = ["Network", "EthernetLanTopology", "WanTreeTopology", "GroupSpec"]


class Network:
    """Base: a registry of interfaces plus multicast join plumbing."""

    #: :meth:`drop_summary`'s keys, in order, each with the seam reasons
    #: of the run's drop ledger (``Simulator.drops``) it adds up.
    #: ``nic_corrupt`` is no drop: it counts the frames the NICs
    #: corrupted, which the hosts then drop as ``checksum``.
    DROP_REASONS: dict[str, tuple[str, ...]] = {
        "nic_rx_ring": ("rx_ring_overflow",),
        "nic_rx_loss": ("rx_loss",),
        "nic_fault": ("tx_nic_dead", "nic_dead", "nic_burst_drop"),
        "nic_corrupt": (),
    }

    def __init__(self, sim: Simulator, seed: int = 0):
        self.sim = sim
        self.seed = seed
        self.nics: dict[str, NetworkInterface] = {}

    def register(self, nic: NetworkInterface) -> NetworkInterface:
        if nic.addr in self.nics:
            raise ValueError(f"duplicate interface address {nic.addr}")
        self.nics[nic.addr] = nic
        return nic

    def join_group(self, nic: NetworkInterface, group: str) -> None:
        nic.join_group(group)

    def leave_group(self, nic: NetworkInterface, group: str) -> None:
        nic.leave_group(group)

    def drop_summary(self) -> dict[str, int]:
        """The run's drops by :attr:`DROP_REASONS` key."""
        drops = self.sim.drops
        summary = {key: sum(drops.get(reason, 0) for reason in reasons)
                   for key, reasons in self.DROP_REASONS.items()}
        summary["nic_corrupt"] = sum(nic.fault_corruptions
                                     for nic in self.nics.values())
        return summary

    def fault_surfaces(self) -> dict[str, object]:
        """Name -> medium exposing the link-fault hooks (``up`` and
        ``fault_loss_rate``) for the fault injector.
        Keys are topology-specific (e.g. ``"lan"``, ``"group:A"``,
        ``"rx:10.0.0.3"``)."""
        return {}


class EthernetLanTopology(Network):
    """All hosts on one shared Ethernet segment (the link's and the
    NICs' default propagation delay and rings)."""

    DROP_REASONS = {**Network.DROP_REASONS,
                    "link_fault": ("link_down", "link_fault_loss")}

    def __init__(self, sim: Simulator, bandwidth_bps: float, *, seed: int = 0):
        super().__init__(sim, seed)
        self.link = SharedLink(sim, bandwidth_bps, seed=seed)

    def make_nic(self, addr: str) -> NetworkInterface:
        nic = NetworkInterface(self.sim, addr, seed=self.seed)
        self.link.attach(nic)
        nic.attach(self.link)
        return self.register(nic)

    def fault_surfaces(self) -> dict[str, object]:
        return {"lan": self.link}


@dataclass(frozen=True)
class GroupSpec:
    """A characteristic group (paper Figure 14a)."""

    name: str
    delay_us: int       # one-way network delay to receivers in the group
    loss_rate: float    # total loss rate seen by a receiver in the group

    @property
    def router_loss(self) -> float:
        """Correlated share (90 %) applied at the group router."""
        return self.loss_rate * 0.9

    @property
    def nic_loss(self) -> float:
        """Uncorrelated share (10 %) applied per receiver interface."""
        return self.loss_rate * 0.1


class WanTreeTopology(Network):
    """Sender -- backbone router -- per-group routers -- receivers.

    ``speed_bps`` is the scenario's network speed (10 or 100 Mbps); it
    is applied to every pipe so serialization matches the paper's
    "network speed" router attribute.  Each group's correlated loss
    applies to the feedback direction as well.
    """

    LOCAL_DELAY_US = 10        # group router <-> receiver NIC
    ACCESS_DELAY_US = 10       # sender NIC <-> backbone
    QUEUE_LIMIT = 2000         # packets waiting for any one pipe

    DROP_REASONS = {**Network.DROP_REASONS,
                    "router_loss": ("router_loss",),
                    "pipe_loss": ("pipe_loss",),
                    "pipe_queue": ("pipe_queue_overflow",),
                    "pipe_fault": ("pipe_down", "pipe_fault_loss")}

    def __init__(self, sim: Simulator, speed_bps: float, *, seed: int = 0):
        super().__init__(sim, seed)
        self.speed_bps = float(speed_bps)
        self.backbone = Router(sim, loss_rate=0.0, seed=seed, name="backbone")
        self._group_routers: dict[str, Router] = {}
        self._group_down: dict[str, Pipe] = {}   # backbone -> group router
        self._nic_group: dict[str, GroupSpec] = {}   # receiver addr -> spec
        self._nic_down: dict[str, Pipe] = {}     # group router -> NIC
        self.sender_nic: NetworkInterface | None = None

    # -- construction ---------------------------------------------------

    def _pipe(self, name: str, *, prop: int, loss: float = 0.0) -> Pipe:
        return Pipe(self.sim, self.speed_bps, prop_delay_us=prop,
                    queue_limit=self.QUEUE_LIMIT, loss_rate=loss,
                    seed=self.seed, name=name)

    def add_sender(self, addr: str) -> NetworkInterface:
        if self.sender_nic is not None:
            raise ValueError("sender already added")
        nic = NetworkInterface(self.sim, addr, seed=self.seed)
        up = self._pipe(f"up:{addr}", prop=self.ACCESS_DELAY_US)
        up.connect(self.backbone)
        nic.attach(up)
        down = self._pipe(f"down:{addr}", prop=self.ACCESS_DELAY_US)
        down.connect(nic)
        self.backbone.add_route(addr, down)
        self.sender_nic = nic
        return self.register(nic)

    def _ensure_group(self, spec: GroupSpec) -> Router:
        router = self._group_routers.get(spec.name)
        if router is None:
            router = Router(self.sim, loss_rate=spec.router_loss,
                            seed=self.seed, name=f"gr:{spec.name}")
            down = self._pipe(f"bb->{spec.name}", prop=spec.delay_us)
            down.connect(router)
            up = self._pipe(f"{spec.name}->bb", prop=spec.delay_us,
                            loss=spec.router_loss)
            up.connect(self.backbone)
            router.set_default_route(up)
            self._group_routers[spec.name] = router
            self._group_down[spec.name] = down
        return router

    def add_receiver(self, addr: str, spec: GroupSpec) -> NetworkInterface:
        router = self._ensure_group(spec)
        nic = NetworkInterface(self.sim, addr, rx_loss_rate=spec.nic_loss,
                               seed=self.seed)
        up = self._pipe(f"up:{addr}", prop=self.LOCAL_DELAY_US)
        up.connect(router)
        nic.attach(up)
        down = self._pipe(f"down:{addr}", prop=self.LOCAL_DELAY_US)
        down.connect(nic)
        router.add_route(addr, down)
        self.backbone.add_route(addr, self._group_down[spec.name])
        self._nic_group[addr] = spec
        self._nic_down[addr] = down
        return self.register(nic)

    # -- multicast plumbing ----------------------------------------------

    def join_group(self, nic: NetworkInterface, group: str) -> None:
        nic.join_group(group)
        spec = self._nic_group.get(nic.addr)
        if spec is None:
            return  # the sender does not receive its own multicast
        router = self._group_routers[spec.name]
        router.mcast_subscribe(group, self._nic_down[nic.addr])
        self.backbone.mcast_subscribe(group, self._group_down[spec.name])

    def leave_group(self, nic: NetworkInterface, group: str) -> None:
        nic.leave_group(group)
        spec = self._nic_group.get(nic.addr)
        if spec is None:
            return
        router = self._group_routers[spec.name]
        router.mcast_unsubscribe(group, self._nic_down[nic.addr])
        if group not in router._mcast:
            self.backbone.mcast_unsubscribe(group, self._group_down[spec.name])

    def fault_surfaces(self) -> dict[str, object]:
        """Downstream pipes: ``group:<name>`` cuts a whole characteristic
        group off the backbone; ``rx:<addr>`` cuts one receiver."""
        surfaces: dict[str, object] = {}
        for name, pipe in self._group_down.items():
            surfaces[f"group:{name}"] = pipe
        for addr, pipe in self._nic_down.items():
            surfaces[f"rx:{addr}"] = pipe
        return surfaces
