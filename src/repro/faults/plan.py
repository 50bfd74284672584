"""Declarative fault plans.

A :class:`FaultPlan` is pure data: a master seed plus a tuple of
:class:`FaultAction` records, each naming a fault kind, a sim time, a
target, and the fault's parameters.  Plans serialize to JSON (so a
failing chaos run can be replayed from its artifact) and can be drawn
at random from a seeded substream, which is what the property-test
battery does: the plan *is* the test case.

Targets
-------
Host-directed actions address hosts by receiver index (``0 ..
n_receivers-1``); ``SENDER`` (-1) addresses the sender host where that
makes sense (pause, clock trouble, NIC faults -- crashing the sender is
not modelled; the paper's protocol declares the session dead via the
receiver-side session timeout instead).  Link-directed actions name a
*fault surface* from :meth:`repro.net.topology.Network.fault_surfaces`
(``"lan"`` on the Ethernet testbed; ``"group:<name>"`` / ``"rx:<addr>"``
on the WAN tree).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Optional

from repro.sim.rng import substream

__all__ = ["SENDER", "FaultAction", "LinkFlap", "LinkDegrade",
           "NicBurstDrop", "NicCorrupt", "ReceiverCrash", "HostPause",
           "ClockSkew", "TimerStall", "FaultPlan"]

SENDER = -1


@dataclass(frozen=True)
class FaultAction:
    """Base record: every fault happens at an absolute sim time."""

    kind: ClassVar[str] = ""
    at_us: int

    def describe(self) -> str:
        params = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "at_us"}
        inner = " ".join(f"{k}={v}" for k, v in params.items())
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class LinkFlap(FaultAction):
    """Take a fault surface down completely for ``duration_us``."""

    kind: ClassVar[str] = "link_flap"
    surface: str = "lan"
    duration_us: int = 100_000


@dataclass(frozen=True)
class LinkDegrade(FaultAction):
    """Add random loss on a fault surface for ``duration_us``."""

    kind: ClassVar[str] = "link_degrade"
    surface: str = "lan"
    loss_rate: float = 0.1
    duration_us: int = 500_000


@dataclass(frozen=True)
class NicBurstDrop(FaultAction):
    """One NIC drops every otherwise-deliverable frame for a while
    (an overrun burst; the paper's Figure 13 ring-buffer drops made
    contiguous and schedulable)."""

    kind: ClassVar[str] = "nic_burst_drop"
    target: int = 0
    duration_us: int = 100_000


@dataclass(frozen=True)
class NicCorrupt(FaultAction):
    """One NIC flips bits in a fraction of received frames for a while;
    the host checksum turns each into a silent drop."""

    kind: ClassVar[str] = "nic_corrupt"
    target: int = 0
    rate: float = 0.1
    duration_us: int = 500_000


@dataclass(frozen=True)
class ReceiverCrash(FaultAction):
    """Power-fail one receiver host mid-transfer.  Kernel and
    application state die with it.  With ``restart_at_us`` set, the
    host powers back up then and rejoins the group as a fresh endpoint
    (it re-learns the sender and recovers what the sender still
    buffers; data released before the rejoin is gone for it)."""

    kind: ClassVar[str] = "receiver_crash"
    target: int = 0
    restart_at_us: Optional[int] = None


@dataclass(frozen=True)
class HostPause(FaultAction):
    """Freeze one host's CPU for ``duration_us`` (SMM excursion, long
    interrupts-off section): serialized host work queues up behind it."""

    kind: ClassVar[str] = "host_pause"
    target: int = 0
    duration_us: int = 100_000


@dataclass(frozen=True)
class ClockSkew(FaultAction):
    """Multiply one host's programmed timer delays by ``skew`` for
    ``duration_us`` (a drifting oscillator: >1 slow, <1 fast)."""

    kind: ClassVar[str] = "clock_skew"
    target: int = 0
    skew: float = 1.5
    duration_us: int = 1_000_000


@dataclass(frozen=True)
class TimerStall(FaultAction):
    """Wedge one host's timer interrupt: no protocol timer on that host
    fires before ``at_us + duration_us`` (already-scheduled expiries
    included are *not* rescheduled -- only new arms are deferred, like
    a stuck ``timer_bh``)."""

    kind: ClassVar[str] = "timer_stall"
    target: int = 0
    duration_us: int = 200_000


_ACTION_KINDS = {cls.kind: cls for cls in (
    LinkFlap, LinkDegrade, NicBurstDrop, NicCorrupt, ReceiverCrash,
    HostPause, ClockSkew, TimerStall)}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered schedule of fault actions."""

    seed: int = 0
    actions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "actions",
                           tuple(sorted(self.actions, key=lambda a: a.at_us)))

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def crashes(self) -> tuple:
        return tuple(a for a in self.actions if isinstance(a, ReceiverCrash))

    def describe(self) -> str:
        return "; ".join(f"t={a.at_us}us {a.describe()}"
                         for a in self.actions) or "(empty)"

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        """The plan's JSON document as data."""
        recs = []
        for a in self.actions:
            rec = asdict(a)
            rec["kind"] = a.kind
            recs.append(rec)
        return {"seed": self.seed, "actions": recs}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        actions = []
        for rec in doc.get("actions", []):
            rec = dict(rec)
            kind = rec.pop("kind")
            try:
                action_cls = _ACTION_KINDS[kind]
            except KeyError:
                raise ValueError(f"unknown fault kind {kind!r}") from None
            actions.append(action_cls(**rec))
        return cls(seed=int(doc.get("seed", 0)), actions=tuple(actions))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- random generation ------------------------------------------------

    @classmethod
    def random(cls, seed: int, *, n_receivers: int, horizon_us: int,
               allow_crash: bool = True,
               max_outage_us: Optional[int] = None,
               surfaces: tuple = ("lan",)) -> "FaultPlan":
        """Draw a reproducible random plan for a transfer expected to
        take roughly ``horizon_us`` of sim time.

        At most one receiver crash is drawn (and only when
        ``allow_crash``); protocols whose liveness cannot survive a
        silent receiver (the ACK baseline stalls on its minimum
        cumulative ack forever) should pass ``allow_crash=False`` and a
        ``max_outage_us`` short enough that transient outages stay
        below their eviction/timeout horizons.
        """
        rng = substream(seed, "fault:plan")

        def outage(lo_frac: float, hi_frac: float) -> int:
            d = int(rng.uniform(lo_frac, hi_frac) * horizon_us)
            if max_outage_us is not None:
                d = min(d, max_outage_us)
            return max(1_000, d)

        def when(lo_frac: float = 0.05, hi_frac: float = 0.75) -> int:
            return int(rng.uniform(lo_frac, hi_frac) * horizon_us)

        kinds = ["link_flap", "link_degrade", "nic_burst_drop",
                 "nic_corrupt", "host_pause", "clock_skew", "timer_stall"]
        actions: list[FaultAction] = []
        for _ in range(rng.randint(2, 5)):
            kind = rng.choice(kinds)
            target = rng.randrange(n_receivers)
            if kind == "link_flap":
                actions.append(LinkFlap(
                    at_us=when(), surface=rng.choice(list(surfaces)),
                    duration_us=outage(0.02, 0.10)))
            elif kind == "link_degrade":
                actions.append(LinkDegrade(
                    at_us=when(), surface=rng.choice(list(surfaces)),
                    loss_rate=round(rng.uniform(0.05, 0.35), 3),
                    duration_us=outage(0.10, 0.40)))
            elif kind == "nic_burst_drop":
                actions.append(NicBurstDrop(
                    at_us=when(), target=target,
                    duration_us=outage(0.02, 0.10)))
            elif kind == "nic_corrupt":
                actions.append(NicCorrupt(
                    at_us=when(), target=target,
                    rate=round(rng.uniform(0.05, 0.25), 3),
                    duration_us=outage(0.10, 0.40)))
            elif kind == "host_pause":
                actions.append(HostPause(
                    at_us=when(), target=target,
                    duration_us=outage(0.02, 0.08)))
            elif kind == "clock_skew":
                actions.append(ClockSkew(
                    at_us=when(), target=target,
                    skew=round(rng.choice([rng.uniform(0.5, 0.9),
                                           rng.uniform(1.1, 2.5)]), 3),
                    duration_us=outage(0.20, 0.50)))
            else:
                actions.append(TimerStall(
                    at_us=when(), target=target,
                    duration_us=outage(0.02, 0.10)))
        if allow_crash and rng.random() < 0.5:
            t = when(0.10, 0.50)
            restart = (t + int(rng.uniform(0.10, 0.30) * horizon_us)
                       if rng.random() < 0.7 else None)
            actions.append(ReceiverCrash(
                at_us=t, target=rng.randrange(n_receivers),
                restart_at_us=restart))
        return cls(seed=seed, actions=tuple(actions))
