"""The event-class vocabulary of the engine profiler's tax table.

:mod:`~repro.obs.perf.taxonomy` attributes every executed engine
callback to one of a small, stable set of event classes; the profiler
(:class:`~repro.obs.profiler.SimProfiler`) folds its table into them
when a class view is read, and ``perf profile`` prints the result.
"""

from __future__ import annotations

from repro.obs.perf.taxonomy import (EVENT_CLASSES, classify, register_site,
                                     timer_class)

__all__ = ["EVENT_CLASSES", "classify", "register_site", "timer_class"]
