"""Packet tracing.

A :class:`~repro.trace.tracer.PacketTracer` owns a run's packet seam and
records every transport segment the hosts it is attached to send or
receive -- the simulated equivalent of running tcpdump on each machine
of the testbed.  A capture can be saved as JSON lines
(:meth:`~repro.trace.tracer.PacketTracer.save`); what a run did on the
wire is measured online by the roles' counters and recovery books.
"""

from repro.trace.tracer import PacketTracer, TraceEvent

__all__ = ["PacketTracer", "TraceEvent"]
