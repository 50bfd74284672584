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

# sustained sequential transfer rate: 4 MB/s, typical of late-90s IDE
# disks under filesystem overhead
BANDWIDTH_BPS = 32e6
PER_OP_US = 2_000          # fixed overhead per read/write call
HICCUP_US = 30_000         # extra delay of a stalled operation


class DiskModel:
    """Sequential-I/O disk with jitter.

    ``hiccup_prob`` is the probability that an operation stalls (seek,
    write-back flush) for ``HICCUP_US`` more.
    """

    def __init__(self, sim: Simulator, *, hiccup_prob: float = 0.08,
                 seed: int = 0, name: str = "disk"):
        self.sim = sim
        self.hiccup_prob = float(hiccup_prob)
        self._rng = substream(seed, f"disk:{name}")

    def _op_delay(self, nbytes: int) -> int:
        delay = PER_OP_US + round(nbytes * 8 * US_PER_SEC / BANDWIDTH_BPS)
        if self._rng.random() < self.hiccup_prob:
            delay += HICCUP_US
        return delay

    def read(self, nbytes: int):
        """``yield from disk.read(n)`` inside an application process."""
        yield Delay(self._op_delay(nbytes))
        return nbytes

    def write_us(self, nbytes: int) -> int:
        """How long a write of ``nbytes`` takes (us).  An event-driven
        application schedules its next step that far ahead."""
        return self._op_delay(nbytes)

    def write(self, nbytes: int):
        """``yield from disk.write(n)`` inside an application process."""
        yield Delay(self.write_us(nbytes))
        return nbytes
