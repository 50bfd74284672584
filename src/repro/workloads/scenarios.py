"""Scenario builders: a network plus hosts, ready for a transfer.

Two scenario kinds cover the paper's evaluation:

* :func:`build_lan` -- the experimental testbed (shared Ethernet,
  Figures 10-13),
* :func:`build_wan` -- the simulation topology (characteristic groups,
  Figures 3, 15, 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.kernel.host import Host
from repro.net.addr import host_addr, mcast_addr
from repro.net.topology import (EthernetLanTopology, GroupSpec, Network,
                                WanTreeTopology)
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["Scenario", "build_lan", "build_wan", "build_chaos"]

SENDER_ADDR = "10.0.0.1"


@dataclass
class Scenario:
    """A built network with one sender host and N receiver hosts."""

    sim: Simulator
    network: Network
    sender: Host
    receivers: list[Host]
    bandwidth_bps: float
    group_addr: str = field(default_factory=lambda: mcast_addr(1))
    data_port: int = 6000
    sender_port: int = 5000
    # optional chaos: executed by the harness when set (see repro.faults)
    fault_plan: Optional[FaultPlan] = None

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)


def build_lan(n_receivers: int, bandwidth_bps: float, *,
              seed: int = 0) -> Scenario:
    """All hosts on one shared Ethernet segment."""
    sim = Simulator()
    lan = EthernetLanTopology(sim, bandwidth_bps, seed=seed)
    sender = Host(sim, lan, lan.make_nic(SENDER_ADDR))
    receivers = [
        Host(sim, lan, lan.make_nic(host_addr(0, i + 2)))
        for i in range(n_receivers)
    ]
    return Scenario(sim=sim, network=lan, sender=sender,
                       receivers=receivers, bandwidth_bps=bandwidth_bps)


def build_wan(group_specs: list[GroupSpec], bandwidth_bps: float, *,
              seed: int = 0) -> Scenario:
    """Sender behind a backbone; one receiver per entry in
    ``group_specs``, placed in that entry's characteristic group."""
    sim = Simulator()
    wan = WanTreeTopology(sim, bandwidth_bps, seed=seed)
    sender = Host(sim, wan, wan.add_sender(SENDER_ADDR))
    receivers = []
    site_count: dict[str, int] = {}
    site_ids: dict[str, int] = {}
    for spec in group_specs:
        if spec.name not in site_ids:
            site_ids[spec.name] = len(site_ids) + 1
        site = site_ids[spec.name]
        idx = site_count.get(spec.name, 0) + 1
        site_count[spec.name] = idx
        nic = wan.add_receiver(host_addr(site, idx), spec)
        receivers.append(Host(sim, wan, nic))
    return Scenario(sim=sim, network=wan, sender=sender,
                       receivers=receivers, bandwidth_bps=bandwidth_bps)


def build_chaos(n_receivers: int, bandwidth_bps: float, *, seed: int,
                horizon_us: int = 2_000_000, allow_crash: bool = True,
                max_outage_us: Optional[int] = None) -> Scenario:
    """A LAN scenario carrying a seed-random :class:`FaultPlan` sized to
    a transfer that takes roughly ``horizon_us`` of simulated time.
    The same seed drives both the topology and the plan, so one integer
    reproduces the whole chaotic run."""
    from repro.faults.plan import FaultPlan

    scenario = build_lan(n_receivers, bandwidth_bps, seed=seed)
    scenario.fault_plan = FaultPlan.random(
        seed, n_receivers=n_receivers, horizon_us=horizon_us,
        allow_crash=allow_crash, max_outage_us=max_outage_us)
    return scenario
