"""A 1999-class disk model.

The paper's disk-to-disk tests read the file from local disk at the
sender and write it to local disk at each receiver, which "slowed the
application by I/O operations" and produced the noisy rate-request
behaviour of Figure 11(c,d).  The model charges each I/O a fixed
per-operation overhead plus bytes/bandwidth, with occasional slow
operations (seek storms, write-back stalls) drawn from the component's
own random stream.
"""

from __future__ import annotations

from repro.sim.engine import Simulator, US_PER_SEC
from repro.sim.process import Delay
from repro.sim.rng import substream

__all__ = ["DiskModel"]


class DiskModel:
    """Sequential-I/O disk with jitter.

    Parameters
    ----------
    bandwidth_bps:
        Sustained sequential transfer rate (default 4 MB/s, typical of
        late-90s IDE disks under filesystem overhead).
    per_op_us:
        Fixed overhead per read/write call.
    hiccup_prob / hiccup_us:
        Probability that an operation stalls (seek, write-back flush)
        and the extra delay when it does.
    """

    def __init__(self, sim: Simulator, *, bandwidth_bps: float = 32e6,
                 per_op_us: int = 2_000, hiccup_prob: float = 0.08,
                 hiccup_us: int = 30_000, seed: int = 0, name: str = "disk"):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.per_op_us = int(per_op_us)
        self.hiccup_prob = float(hiccup_prob)
        self.hiccup_us = int(hiccup_us)
        self._rng = substream(seed, f"disk:{name}")
        self.bytes_read = 0
        self.bytes_written = 0
        self.ops = 0
        self.hiccups = 0

    def _op_delay(self, nbytes: int) -> int:
        delay = self.per_op_us + round(nbytes * 8 * US_PER_SEC /
                                       self.bandwidth_bps)
        self.ops += 1
        if self._rng.random() < self.hiccup_prob:
            self.hiccups += 1
            delay += self.hiccup_us
        return delay

    def read(self, nbytes: int):
        """``yield from disk.read(n)`` inside an application process."""
        self.bytes_read += nbytes
        yield Delay(self._op_delay(nbytes))
        return nbytes

    def write_us(self, nbytes: int) -> int:
        """Account a write of ``nbytes``; returns how long it takes (us).
        An event-driven application schedules its next step that far
        ahead."""
        self.bytes_written += nbytes
        return self._op_delay(nbytes)

    def write(self, nbytes: int):
        """``yield from disk.write(n)`` inside an application process."""
        yield Delay(self.write_us(nbytes))
        return nbytes
