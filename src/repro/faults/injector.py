"""Executes a :class:`~repro.faults.plan.FaultPlan` against a built
scenario.

Every fault goes through an injection hook built into the component
itself (``SharedLink``/``Pipe`` up/degrade flags, the NIC's power and
fault fields, ``Host.crash/restart/pause``, the per-host
``HostClock``); the injector only schedules when those knobs turn, so
the simulation stays deterministic and nothing is monkey-patched.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults.plan import (ClockSkew, FaultPlan, HostPause, LinkDegrade,
                               LinkFlap, NicBurstDrop, NicCorrupt,
                               ReceiverCrash, SENDER, TimerStall)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms a plan's actions on the simulator.

    Usage (the harness does this for you)::

        injector = FaultInjector(scenario, plan, checker=checker)
        injector.register_receivers(rsocks, procs, restart_fn=rejoin)
        injector.arm()
    """

    def __init__(self, scenario, plan: FaultPlan, checker=None):
        self.scenario = scenario
        self.sim = scenario.sim
        self.plan = plan
        self.checker = checker
        self._surfaces = scenario.network.fault_surfaces()
        self.fault_events = 0   # fault knobs turned so far
        self.crashed: set[int] = set()
        self.restarted: set[int] = set()
        self._rsocks: list = []
        self._rprocs: list = []
        self._restart_fn: Optional[Callable[[int], None]] = None
        self._armed = False

    def register_receivers(self, socks: list, procs: list,
                           restart_fn: Optional[Callable[[int], None]]
                           = None) -> None:
        """Tell the injector which socket/process pair embodies each
        receiver index, and how to rebuild one after a restart.
        ``restart_fn(idx)`` must create a fresh socket + application
        process on the (already restarted) host."""
        self._rsocks = list(socks)
        self._rprocs = list(procs)
        self._restart_fn = restart_fn

    # ------------------------------------------------------------------

    def arm(self) -> None:
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for action in self.plan.actions:
            at = max(int(action.at_us), self.sim.now)
            if isinstance(action, LinkFlap):
                surface = self._surface(action.surface)
                self.sim.call_at(at, self._set_up, surface, False)
                self.sim.call_at(at + action.duration_us, self._set_up,
                                 surface, True)
            elif isinstance(action, LinkDegrade):
                surface = self._surface(action.surface)
                self.sim.call_at(at, self._set_loss, surface,
                                 action.loss_rate)
                self.sim.call_at(at + action.duration_us, self._set_loss,
                                 surface, 0.0)
            elif isinstance(action, NicBurstDrop):
                self.sim.call_at(at, self._burst_drop, action)
            elif isinstance(action, NicCorrupt):
                nic = self._host(action.target).nic
                self.sim.call_at(at, self._set_corrupt, nic, action.rate)
                self.sim.call_at(at + action.duration_us, self._set_corrupt,
                                 nic, 0.0)
            elif isinstance(action, ReceiverCrash):
                if not 0 <= action.target < len(self.scenario.receivers):
                    raise ValueError(
                        f"crash target {action.target} out of range")
                self.sim.call_at(at, self._crash, action)
            elif isinstance(action, HostPause):
                self.sim.call_at(at, self._pause, action)
            elif isinstance(action, ClockSkew):
                clock = self._host(action.target).clock
                self.sim.call_at(at, self._set_skew, clock, action.skew)
                self.sim.call_at(at + action.duration_us, self._set_skew,
                                 clock, 1.0)
            elif isinstance(action, TimerStall):
                self.sim.call_at(at, self._stall, action)
            else:
                raise TypeError(f"unknown fault action {action!r}")

    # ------------------------------------------------------------------

    def _host(self, target: int):
        if target == SENDER:
            return self.scenario.sender
        return self.scenario.receivers[target]

    def _surface(self, name: str):
        try:
            return self._surfaces[name]
        except KeyError:
            raise ValueError(
                f"unknown fault surface {name!r}; this topology has: "
                f"{sorted(self._surfaces)}") from None

    # -- action bodies --------------------------------------------------

    def _set_up(self, surface, up: bool) -> None:
        surface.up = up
        self.fault_events += 1

    def _set_loss(self, surface, rate: float) -> None:
        surface.fault_loss_rate = rate
        self.fault_events += 1

    def _burst_drop(self, action: NicBurstDrop) -> None:
        nic = self._host(action.target).nic
        until = self.sim.now + action.duration_us
        nic.fault_rx_drop_until = max(nic.fault_rx_drop_until, until)
        self.fault_events += 1

    def _set_corrupt(self, nic, rate: float) -> None:
        nic.fault_corrupt_rate = rate
        self.fault_events += 1

    def _pause(self, action: HostPause) -> None:
        self._host(action.target).pause(action.duration_us)
        self.fault_events += 1

    def _set_skew(self, clock, skew: float) -> None:
        clock.skew = skew
        self.fault_events += 1

    def _stall(self, action: TimerStall) -> None:
        clock = self._host(action.target).clock
        until = self.sim.now + action.duration_us
        clock.stalled_until = max(clock.stalled_until, until)
        self.fault_events += 1

    def _crash(self, action: ReceiverCrash) -> None:
        tgt = action.target
        if tgt in self.crashed:
            return  # already dead (two crash actions for one target)
        host = self.scenario.receivers[tgt]
        proc = self._rprocs[tgt] if tgt < len(self._rprocs) else None
        if proc is not None and proc.alive:
            proc.kill()
        sock = self._rsocks[tgt] if tgt < len(self._rsocks) else None
        if sock is not None:
            # dead kernels are exempt from coherence checks
            if self.checker is not None:
                self.checker.forget(sock.transport)
            sock.abort()
        host.crash()
        self.crashed.add(tgt)
        self.fault_events += 1
        if action.restart_at_us is not None and self._restart_fn is not None:
            self.sim.call_at(max(int(action.restart_at_us), self.sim.now + 1),
                             self._restart, tgt)

    def _restart(self, idx: int) -> None:
        host = self.scenario.receivers[idx]
        host.restart()
        self.restarted.add(idx)
        self.fault_events += 1
        self._restart_fn(idx)
