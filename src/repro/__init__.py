"""hrmc-repro: a reproduction of "H-RMC: A Hybrid Reliable Multicast
Protocol for the Linux Kernel" (McKinley, Rao & Wright, SC '99).
The package imports nothing outside the standard library.

Top-level convenience exports; see the subpackages for the full API:

- :mod:`repro.core` -- the H-RMC protocol
- :mod:`repro.baselines` -- ACK-based, polling-based, TCP-like
- :mod:`repro.sim` / :mod:`repro.net` / :mod:`repro.kernel` -- substrate
- :mod:`repro.workloads` / :mod:`repro.harness` -- experiments
- :mod:`repro.trace` -- packet capture
- :mod:`repro.obs` -- protocol health, the engine profiler
"""

from repro.core import HRMCConfig, open_hrmc_socket
from repro.harness import TransferResult, run_transfer
from repro.workloads import build_lan, build_wan

__version__ = "1.0.0"

__all__ = [
    "HRMCConfig",
    "open_hrmc_socket",
    "run_transfer",
    "TransferResult",
    "build_lan",
    "build_wan",
    "__version__",
]
