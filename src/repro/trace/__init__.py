"""Packet tracing and offline analysis.

A :class:`~repro.trace.tracer.PacketTracer` taps one or more hosts and
records every transport segment they send or receive -- the simulated
equivalent of running tcpdump on each machine of the testbed.  Traces
can be saved to JSON-lines files and analyzed offline with
:mod:`repro.trace.analyzer`: per-type summaries, retransmission ratios,
throughput timelines and sequence-progress views.
"""

from repro.trace.tracer import (PacketTracer, TraceEvent, load_trace,
                                trace_meta)

__all__ = ["PacketTracer", "TraceEvent", "load_trace", "trace_meta"]
