"""Aggregation layer: express a figure suite as a RunSpec grid.

An experiment function is written once, in its natural shape (nested
loops building tables), against ``grid.run(spec)`` instead of a direct
``run_transfer`` call.  It is then evaluated twice:

1. **planning pass** -- ``Grid()`` with no results: ``run`` collects
   every spec (deduplicated, in first-use order) and returns a
   :data:`PROBE` placeholder whose attribute chain always yields zero,
   so the surrounding table-building code runs through without
   executing a single simulation;
2. **report pass** -- ``Grid(results)`` after the fleet executed the
   specs: ``run`` serves the real
   :class:`~repro.harness.runner.TransferResult` for each spec
   and the same code produces the real tables.

Because the grid is keyed by spec content hash, identical cells that
appear in several figure suites (e.g. Figure 10's disk runs reused by
Figure 11) are planned once and simulated once.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from repro.harness.runner import TransferResult
from repro.workloads.spec import RunSpec

__all__ = ["Grid", "PROBE"]


class _Probe(int):
    """Placeholder result for the planning pass.

    An ``int`` zero whose attribute access returns itself, so any
    chain the report code follows (``res.sender_stats.naks_rcvd``,
    arithmetic, ``round``, truth tests, iteration) evaluates without a
    result being available.  Every value derived from it is discarded
    with the planning pass's report.
    """

    def __new__(cls) -> "_Probe":
        return super().__new__(cls, 0)

    def __getattr__(self, name: str) -> "_Probe":
        if name.startswith("__"):
            raise AttributeError(name)
        return self

    def __iter__(self) -> Iterator[object]:
        return iter(())


PROBE = _Probe()


class Grid:
    """One experiment's spec grid; see the module docstring."""

    def __init__(self,
                 results: Optional[dict[str, TransferResult]] = None
                 ) -> None:
        self.specs: list[RunSpec] = []
        self._seen: set[str] = set()
        self._results = results

    @property
    def planning(self) -> bool:
        return self._results is None

    def run(self, spec: RunSpec) -> Union[TransferResult, _Probe]:
        """Register ``spec``; return its result (or the probe)."""
        h = spec.content_hash()
        if h not in self._seen:
            self._seen.add(h)
            self.specs.append(spec)
        if self._results is None:
            return PROBE
        try:
            return self._results[h]
        except KeyError:
            raise KeyError(
                f"no fleet result for spec {spec.describe()} "
                f"({h}); was the grid executed?") from None
