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

        injector = FaultInjector(scenario, plan, checker=checker,
                                 recorder=recorder)
        injector.register_receivers(rsocks, procs, restart_fn=rejoin)
        injector.arm()
    """

    def __init__(self, scenario, plan: FaultPlan, checker=None,
                 recorder=None):
        self.scenario = scenario
        self.sim = scenario.sim
        self.plan = plan
        self.checker = checker
        # the run's causal recorder (repro.obs.causal), if lineage is on
        self.recorder = recorder
        self._surfaces = scenario.network.fault_surfaces()
        self.log: list[tuple[int, str]] = []
        self.crashed: set[int] = set()
        self.restarted: set[int] = set()
        self._rsocks: list = []
        self._rprocs: list = []
        self._restart_fn: Optional[Callable[[int], None]] = None
        self._armed = False

    @property
    def fault_events(self) -> int:
        return len(self.log)

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
        for idx, action in enumerate(self.plan.actions):
            at = max(int(action.at_us), self.sim.now)
            if isinstance(action, LinkFlap):
                surface = self._surface(action.surface)
                self.sim.call_at(at, self._set_up, surface,
                                 action.surface, False, idx)
                self.sim.call_at(at + action.duration_us, self._set_up,
                                 surface, action.surface, True, idx)
            elif isinstance(action, LinkDegrade):
                surface = self._surface(action.surface)
                self.sim.call_at(at, self._set_loss, surface,
                                 action.surface, action.loss_rate, idx)
                self.sim.call_at(at + action.duration_us, self._set_loss,
                                 surface, action.surface, 0.0, idx)
            elif isinstance(action, NicBurstDrop):
                self.sim.call_at(at, self._burst_drop, action, idx)
            elif isinstance(action, NicCorrupt):
                nic = self._host(action.target).nic
                self.sim.call_at(at, self._set_corrupt, nic,
                                 action.target, action.rate, idx)
                self.sim.call_at(at + action.duration_us, self._set_corrupt,
                                 nic, action.target, 0.0, idx)
            elif isinstance(action, ReceiverCrash):
                if not 0 <= action.target < len(self.scenario.receivers):
                    raise ValueError(
                        f"crash target {action.target} out of range")
                self.sim.call_at(at, self._crash, action, idx)
            elif isinstance(action, HostPause):
                self.sim.call_at(at, self._pause, action, idx)
            elif isinstance(action, ClockSkew):
                clock = self._host(action.target).clock
                self.sim.call_at(at, self._set_skew, clock,
                                 action.target, action.skew, idx)
                self.sim.call_at(at + action.duration_us, self._set_skew,
                                 clock, action.target, 1.0, idx)
            elif isinstance(action, TimerStall):
                self.sim.call_at(at, self._stall, action, idx)
            else:
                raise TypeError(f"unknown fault action {action!r}")

    # ------------------------------------------------------------------

    def _host(self, target: int):
        if target == SENDER:
            return self.scenario.sender
        return self.scenario.receivers[target]

    def _target_name(self, target: int) -> str:
        return "sender" if target == SENDER else f"rcv{target}"

    def _surface(self, name: str):
        try:
            return self._surfaces[name]
        except KeyError:
            raise ValueError(
                f"unknown fault surface {name!r}; this topology has: "
                f"{sorted(self._surfaces)}") from None

    def _note(self, msg: str) -> None:
        self.log.append((self.sim.now, msg))

    def _emit(self, what: str, where: str, idx: int,
              detail: str = "") -> int:
        """Record the fault action as a causal root (see obs.causal).
        The returned node id is stamped on the poisoned component's
        ``fault_cause`` so its drops can blame this exact plan entry."""
        if self.recorder is None:
            return 0
        return self.recorder.emit("fault", where, what,
                                  detail=detail or f"plan[{idx}]")

    # -- action bodies --------------------------------------------------

    def _set_up(self, surface, name: str, up: bool, idx: int = -1) -> None:
        surface.up = up
        if up:
            self._emit("link_restored", name, idx, f"plan[{idx}] up")
            surface.fault_cause = 0
        else:
            surface.fault_cause = self._emit("link_flap", name, idx)
        self._note(f"{name} {'up' if up else 'down'}")

    def _set_loss(self, surface, name: str, rate: float,
                  idx: int = -1) -> None:
        surface.fault_loss_rate = rate
        if rate > 0.0:
            surface.fault_cause = self._emit(
                "link_degrade", name, idx, f"plan[{idx}] loss={rate}")
        else:
            self._emit("link_restored", name, idx, f"plan[{idx}] loss=0")
            surface.fault_cause = 0
        self._note(f"{name} loss={rate}")

    def _burst_drop(self, action: NicBurstDrop, idx: int = -1) -> None:
        nic = self._host(action.target).nic
        until = self.sim.now + action.duration_us
        nic.fault_rx_drop_until = max(nic.fault_rx_drop_until, until)
        nic.fault_cause = self._emit(
            "nic_burst_drop", self._target_name(action.target), idx,
            f"plan[{idx}] until={until}")
        self._note(f"{self._target_name(action.target)} nic deaf "
                   f"until {until}")

    def _set_corrupt(self, nic, target: int, rate: float,
                     idx: int = -1) -> None:
        nic.fault_corrupt_rate = rate
        if rate > 0.0:
            nic.fault_cause = self._emit(
                "nic_corrupt", self._target_name(target), idx,
                f"plan[{idx}] rate={rate}")
        else:
            self._emit("nic_restored", self._target_name(target), idx,
                       f"plan[{idx}] corrupt=0")
            nic.fault_cause = 0
        self._note(f"{self._target_name(target)} nic corrupt={rate}")

    def _pause(self, action: HostPause, idx: int = -1) -> None:
        self._host(action.target).pause(action.duration_us)
        self._emit("host_pause", self._target_name(action.target), idx,
                   f"plan[{idx}] {action.duration_us}us")
        self._note(f"{self._target_name(action.target)} cpu paused "
                   f"{action.duration_us}us")

    def _set_skew(self, clock, target: int, skew: float,
                  idx: int = -1) -> None:
        clock.skew = skew
        self._emit("clock_skew", self._target_name(target), idx,
                   f"plan[{idx}] skew={skew}")
        self._note(f"{self._target_name(target)} clock skew={skew}")

    def _stall(self, action: TimerStall, idx: int = -1) -> None:
        clock = self._host(action.target).clock
        until = self.sim.now + action.duration_us
        clock.stalled_until = max(clock.stalled_until, until)
        self._emit("timer_stall", self._target_name(action.target), idx,
                   f"plan[{idx}] until={until}")
        self._note(f"{self._target_name(action.target)} timers stalled "
                   f"until {until}")

    def _crash(self, action: ReceiverCrash, idx: int = -1) -> None:
        tgt = action.target
        if tgt in self.crashed:
            return  # already dead (two crash actions for one target)
        host = self.scenario.receivers[tgt]
        host.nic.fault_cause = self._emit("receiver_crash", f"rcv{tgt}", idx)
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
        self._note(f"rcv{tgt} crashed")
        if action.restart_at_us is not None and self._restart_fn is not None:
            self.sim.call_at(max(int(action.restart_at_us), self.sim.now + 1),
                             self._restart, tgt)

    def _restart(self, idx: int) -> None:
        host = self.scenario.receivers[idx]
        host.restart()
        # the restart (and the rejoin it triggers) is *caused by* the
        # crash: the engine already restored the crash node as current,
        # so the new node chains under it
        if self.recorder is not None:
            self.recorder.emit("fault", f"rcv{idx}", "receiver_restart")
        host.nic.fault_cause = 0
        self.restarted.add(idx)
        self._note(f"rcv{idx} restarted")
        self._restart_fn(idx)
