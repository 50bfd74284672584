"""Run one multicast file transfer and collect every metric the paper
reports.

:func:`run_transfer` wires a scenario (from
:mod:`repro.workloads.scenarios`) to a protocol (H-RMC, RMC, the
ACK/polling baselines, or the TCP-like unicast reference), runs the
sender and receiver application processes to completion, and returns a
:class:`TransferResult`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Optional

from repro.apps.diskmodel import DiskModel
from repro.apps.filetransfer import AppResult, ReceiverApp, sender_app
from repro.core.config import HRMCConfig
from repro.core.protocol import open_hrmc_socket
from repro.kernel.socket_api import Socket
from repro.sim.engine import US_PER_SEC
from repro.sim.process import Process
from repro.stats.metrics import Counters

# the baselines, RMC, fault injection, the invariant checker and the
# tracer are imported on the branch that runs them, and the profiler
# comes with the caller's observer: a bare H-RMC transfer loads none
if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import Observability
    from repro.trace.tracer import PacketTracer
    from repro.workloads.scenarios import Scenario

__all__ = ["TransferResult", "run_transfer", "PROTOCOLS"]

PROTOCOLS = ("hrmc", "rmc", "ack", "polling", "tcp")


@dataclass
class TransferResult:
    """One finished transfer: the run record every caller reads, from
    a direct :func:`run_transfer` call to a cached fleet cell.

    :meth:`to_dict` / :meth:`from_dict` carry it as JSON data.
    """

    protocol: str
    nbytes: int
    n_receivers: int
    ok: bool                       # everyone got every byte, verified
    # the run bound came before the sender and every receiver the fault
    # plan spared finished: no result, so throughput is NaN (prints ✗)
    cut_short: bool
    duration_us: int               # to last receiver's final byte
    throughput_bps: float
    sender_stats: Counters
    receiver_stats: Counters       # summed over receivers, not rejoins
    per_receiver: list[AppResult]
    release_complete_pct: float = 100.0
    lost_bytes: int = 0            # RMC-mode stream holes
    reliability_violations: int = 0
    member_timeouts: int = 0
    sim_events: int = 0
    drop_summary: dict = field(default_factory=dict)
    # chaos bookkeeping (populated when a fault plan ran)
    fault_events: int = 0
    plan_actions: int = 0
    crashed_receivers: list = field(default_factory=list)
    restarted_receivers: list = field(default_factory=list)
    invariant_checks: int = 0
    rejoin_results: list = field(default_factory=list)
    # the H-RMC/RMC roles' books(): {"sender": {...}, "receivers": [one
    # per receiver socket, rejoins included]}; {} for the baselines
    books: dict = field(default_factory=dict)

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6

    @property
    def feedback_total(self) -> int:
        return self.receiver_stats.feedback_total

    @property
    def surviving_ok(self) -> bool:
        """Every receiver that was *not* crashed by the fault plan got
        the whole stream, verified, without holes, and the sender
        finished.  With no receiver crashed this is :attr:`ok`."""
        crashed = set(self.crashed_receivers)
        survivors = [r for i, r in enumerate(self.per_receiver)
                     if i not in crashed]
        return (not self.cut_short and self.lost_bytes == 0
                and all(r.done and r.verified and r.bytes_done == self.nbytes
                        for r in survivors)
                and len(survivors) + len(crashed) == self.n_receivers)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["sender_stats"] = self.sender_stats.as_dict()
        d["receiver_stats"] = self.receiver_stats.as_dict()
        d["per_receiver"] = [asdict(r) for r in self.per_receiver]
        d["rejoin_results"] = [asdict(r) for r in self.rejoin_results]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> TransferResult:
        """Rebuild a :meth:`to_dict` record; ``ValueError`` if ``d``
        is not one."""
        d = dict(d)
        try:
            for name in ("sender_stats", "receiver_stats"):
                d[name] = Counters(**d[name])
            for name in ("per_receiver", "rejoin_results"):
                d[name] = [AppResult(**r) for r in d[name]]
            return cls(**d)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed run record: {exc}") from None


def _open_socket(protocol: str, host, cfg: HRMCConfig, *, sndbuf: int,
                 n_receivers: int) -> Socket:
    # one kernel buffer size for sending and receiving, as in the paper
    if protocol == "hrmc":
        return open_hrmc_socket(host, cfg, sndbuf=sndbuf, rcvbuf=sndbuf)
    if protocol == "rmc":
        from repro.core.rmc import open_rmc_socket
        return open_rmc_socket(host, cfg, sndbuf=sndbuf, rcvbuf=sndbuf)
    if protocol == "ack":
        from repro.baselines.ack import AckTransport
        return Socket(AckTransport(host, expected_receivers=n_receivers,
                                   sndbuf=sndbuf, rcvbuf=sndbuf))
    if protocol == "polling":
        from repro.baselines.polling import PollingTransport
        return Socket(PollingTransport(host, expected_receivers=n_receivers,
                                       sndbuf=sndbuf, rcvbuf=sndbuf))
    raise ValueError(f"unknown protocol {protocol!r}")


def run_transfer(scenario: Scenario, *, nbytes: int,
                 protocol: str = "hrmc",
                 sndbuf: int = 64 * 1024,
                 cfg: Optional[HRMCConfig] = None,
                 disk: bool = False, chunk: int = 64 * 1024,
                 verify: str = "offsets", seed: int = 0,
                 max_sim_s: float = 3600.0,
                 invariants: bool = False,
                 tracer: Optional[PacketTracer] = None,
                 obs: Optional[Observability] = None) -> TransferResult:
    """Transfer ``nbytes`` from the scenario's sender to every receiver.

    ``sndbuf`` is the per-socket kernel buffer of the experiments' x
    axis, sending and receiving alike (the paper varies them together
    as "the kernel buffer size").

    ``scenario.fault_plan`` schedules fault injection for the run;
    ``invariants=True`` attaches the always-on protocol-invariant
    checker, which raises
    :class:`~repro.faults.invariants.InvariantViolation` at the first
    unsafe state.  Pass a ``tracer`` to keep the capture (the harness
    attaches it to every host); otherwise the checker runs on an
    internal flight-recorder tracer.

    ``obs`` (an ``Observability(profile=True)``) installs the engine
    profiler as the run's watch; read ``obs.profiler`` afterwards.
    Profiling does not change protocol behaviour.

    ``max_sim_s`` bounds the simulated time of every run; a run it
    stops before the sender and every receiver the fault plan spared
    have finished comes back ``cut_short``.

    A run that lost a process is not a result: every application
    process this function starts (sender, receivers, rejoins) is
    ``fatal``, so the first one to end with an exception stops the run
    there with a ``RuntimeError`` naming it, instead of the survivors
    simulating on to the bound.  (A process killed by the fault plan
    carries no error.)
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    sim = scenario.sim
    n = scenario.n_receivers

    fault_plan = scenario.fault_plan
    if fault_plan is not None and protocol == "tcp":
        raise ValueError("fault plans are not supported for the "
                         "tcp-like reference (sequential unicast)")
    if tracer is None and invariants:
        # a capture nobody passed in has one reader, the checker's
        # violation tail: it gets a flight recorder (bounded memory,
        # subscribers see everything)
        from repro.trace.tracer import PacketTracer
        tracer = PacketTracer(max_events=256, ring=True)
    if tracer is not None:
        tracer.attach(scenario.sender, *scenario.receivers)
    checker = None
    if invariants:
        from repro.faults.invariants import InvariantChecker
        checker = InvariantChecker(tracer)
    if obs is not None:
        obs.attach(scenario)

    base = cfg or HRMCConfig()
    if protocol in ("hrmc", "rmc"):
        base = base.with_rate_cap(scenario.bandwidth_bps)
        if protocol == "hrmc" and base.expected_receivers is None:
            from dataclasses import replace
            base = replace(base, expected_receivers=n)

    sender_result = AppResult(name="sender")
    receiver_results = [AppResult(name=f"rcv{i}") for i in range(n)]
    disks = {}
    if disk:
        disks["sender"] = DiskModel(sim, seed=seed, name="sender")
        for i in range(n):
            disks[i] = DiskModel(sim, seed=seed, name=f"rcv{i}")

    # `procs`: every process this run starts that nobody else joins;
    # each is fatal
    if protocol == "tcp":
        sockets, procs = _run_tcp_sequential(
            scenario, nbytes, sndbuf, sender_result,
            receiver_results, disks, chunk, verify)
    else:
        ssock = _open_socket(protocol, scenario.sender, base,
                             sndbuf=sndbuf, n_receivers=n)
        rsocks = [_open_socket(protocol, h, base, sndbuf=sndbuf,
                               n_receivers=n)
                  for h in scenario.receivers]
        rprocs = [ReceiverApp(rsock, group=scenario.group_addr,
                              port=scenario.data_port,
                              result=receiver_results[i],
                              disk=disks.get(i), chunk=chunk,
                              verify=verify, name=f"rcv{i}")
                  for i, rsock in enumerate(rsocks)]
        sproc = Process(sim, sender_app(ssock, nbytes,
                                        sport=scenario.sender_port,
                                        group=scenario.group_addr,
                                        port=scenario.data_port,
                                        result=sender_result,
                                        disk=disks.get("sender"),
                                        chunk=chunk),
                        name="sender")
        procs = rprocs + [sproc]
        sockets = (ssock, rsocks)
        if checker is not None:
            checker.watch_sender(ssock.transport)
            for rsock in rsocks:
                checker.watch_receiver(rsock.transport)

    injector = None
    rejoin_results: list[AppResult] = []
    rejoined: list[Socket] = []
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(scenario, fault_plan, checker=checker)

        def rejoin(idx: int) -> None:
            """Fresh socket + application on the restarted host: the
            kernel endpoint died with the crash, so the receiver comes
            back as a new group member and resumes mid-stream."""
            sock = _open_socket(protocol, scenario.receivers[idx], base,
                                sndbuf=sndbuf, n_receivers=n)
            rejoined.append(sock)
            res = AppResult(name=f"rcv{idx}-rejoin")
            rejoin_results.append(res)
            ReceiverApp(sock, group=scenario.group_addr,
                        port=scenario.data_port, result=res,
                        chunk=chunk, verify=verify, resume=True,
                        name=f"rcv{idx}-rejoin").fatal = True
            if checker is not None:
                checker.watch_receiver(sock.transport)

        injector.register_receivers(rsocks, rprocs, restart_fn=rejoin)
        injector.arm()

    for proc in procs:
        proc.fatal = True
    sim.run(until=round(max_sim_s * US_PER_SEC))
    if checker is not None:
        checker.final_check()
    crashed = injector.crashed if injector is not None else ()
    cut_short = not (sender_result.done and all(
        r.done for i, r in enumerate(receiver_results) if i not in crashed))
    result = _collect(scenario, protocol, nbytes, sockets, sender_result,
                      receiver_results, cut_short)
    if protocol in ("hrmc", "rmc"):
        roles = [s.transport.receiver for s in (*rsocks, *rejoined)]
        result.books = {"sender": ssock.transport.sender.books(),
                        "receivers": [r.books() for r in roles
                                      if r is not None]}
    if injector is not None:
        result.fault_events = injector.fault_events
        result.plan_actions = len(fault_plan)
        result.crashed_receivers = sorted(injector.crashed)
        result.restarted_receivers = sorted(injector.restarted)
        result.rejoin_results = rejoin_results
    if checker is not None:
        result.invariant_checks = checker.checks
    return result


def _run_tcp_sequential(scenario, nbytes, sndbuf, sender_result,
                        receiver_results, disks, chunk, verify):
    """TCP-like reference: n sequential unicast transfers.  Returns the
    sockets and the processes nobody joins: the receivers and the
    orchestrator (which joins each sender, and dies of what it died
    of)."""
    from repro.baselines.tcp import TcpLikeTransport

    sim = scenario.sim
    sender_socks: list[Socket] = []
    rsocks: list[Socket] = []
    procs: list[Process] = []
    for i, rhost in enumerate(scenario.receivers):
        rsock = Socket(TcpLikeTransport(rhost, sndbuf=sndbuf,
                                        rcvbuf=sndbuf))
        rsocks.append(rsock)
        procs.append(ReceiverApp(rsock, group=rhost.addr,
                                 port=scenario.data_port,
                                 result=receiver_results[i],
                                 disk=disks.get(i), chunk=chunk,
                                 verify=verify, name=f"tcp-rcv{i}"))

    def orchestrate():
        total = 0
        for i, rhost in enumerate(scenario.receivers):
            ssock = Socket(TcpLikeTransport(scenario.sender, sndbuf=sndbuf,
                                            rcvbuf=sndbuf))
            sender_socks.append(ssock)
            one = AppResult(name=f"tcp-snd{i}")
            proc = Process(sim, sender_app(
                ssock, nbytes, sport=scenario.sender_port + i,
                group=rhost.addr, port=scenario.data_port, result=one,
                disk=disks.get("sender"), chunk=chunk), name=f"tcp-snd{i}")
            yield from proc.join()
            total += one.bytes_done
        sender_result.bytes_done = total
        sender_result.finished_at_us = sim.now

    procs.append(Process(sim, orchestrate(), name="tcp-orchestrator"))
    return (sender_socks, rsocks), procs


def _collect(scenario, protocol, nbytes, sockets, sender_result,
             receiver_results, cut_short) -> TransferResult:
    sim = scenario.sim
    n = scenario.n_receivers
    ssock, rsocks = sockets

    rstats = Counters()
    lost = 0
    for rsock in rsocks:
        rstats.add(rsock.transport.stats)
        receiver = getattr(rsock.transport, "receiver", None)
        if receiver is not None:
            lost += getattr(receiver, "lost_bytes", 0)

    data_done = [r.data_done_at_us for r in receiver_results if r.done]
    all_done = (len(data_done) == n and sender_result.done)
    duration = max(data_done) if data_done else sim.now
    complete = all(r.bytes_done == nbytes for r in receiver_results)
    verified = all(r.verified for r in receiver_results)
    throughput = (nbytes * 8 * US_PER_SEC / duration) if duration > 0 else 0.0

    if protocol == "tcp":
        sstats = Counters()
        for s in ssock:
            sstats.add(s.transport.stats)
        release_pct, violations, timeouts = 100.0, 0, 0
    else:
        sstats = ssock.transport.stats
        sender = getattr(ssock.transport, "sender", None)
        release_pct = 100.0 if sender is None else \
            sender.release.percent_complete
        violations = sstats.reliability_violations
        timeouts = sstats.member_timeouts

    return TransferResult(
        protocol=protocol, nbytes=nbytes, n_receivers=n,
        ok=bool(all_done and complete and verified and lost == 0),
        cut_short=cut_short,
        duration_us=duration,
        throughput_bps=math.nan if cut_short else throughput,
        sender_stats=sstats, receiver_stats=rstats,
        per_receiver=receiver_results,
        release_complete_pct=release_pct, lost_bytes=lost,
        reliability_violations=violations, member_timeouts=timeouts,
        sim_events=sim.events_processed,
        drop_summary=scenario.network.drop_summary(),
    )
