"""Comparison baselines.

The paper positions H-RMC against the three traditional approaches to
reliable multicast (section 1).  This package implements a compact but
complete representative of each, over the same kernel/network substrate,
plus a TCP-like unicast stream for the "throughput comparable to TCP"
comparison in the conclusions:

* :mod:`repro.baselines.ack` -- ACK-based sliding window multicast
  (XTP/SCE style): every receiver positively acknowledges every packet;
  the window advances on the slowest receiver's cumulative ACK.
* :mod:`repro.baselines.polling` -- polling-based multicast
  (Barcellos & Ezhilchelvan style): receivers stay silent until the
  sender polls them; buffer release is driven by poll responses.
* :mod:`repro.baselines.tcp` -- a TCP-like unicast stream (cumulative
  ACKs, fast retransmit, slow start / congestion avoidance);
  ``n`` receivers are served by ``n`` sequential transfers.

:mod:`repro.baselines.common` holds what the three share.
"""
