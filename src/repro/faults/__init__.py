"""Deterministic fault injection and protocol-invariant checking.

The paper validates H-RMC on a clean testbed; this package supplies the
missing adversary.  A :class:`~repro.faults.plan.FaultPlan` is a
declarative, seed-reproducible schedule of faults (link flaps, NIC
burst drops and corruption, receiver crashes/restarts, CPU pauses,
clock trouble) executed by a
:class:`~repro.faults.injector.FaultInjector` through injection hooks
built into the network and kernel layers -- never by monkey-patching.
An :class:`~repro.faults.invariants.InvariantChecker` rides the packet
tracer and re-asserts the protocol's safety properties after every
captured event, failing fast with the offending trace slice.
"""
