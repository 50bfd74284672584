"""Rule modules; importing this package populates the registry."""

from repro.analysis.rules import (clockwrite, forksignal, globalstate,
                                  identity, processes, randomness,
                                  unordered, wallclock)

__all__ = ["clockwrite", "forksignal", "globalstate", "identity",
           "processes", "randomness", "unordered", "wallclock"]
