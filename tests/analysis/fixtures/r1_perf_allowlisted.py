# simlint: module=repro.obs.profiler.fixture_r1_perf_allowlisted
"""R1 negative: the profiler boundary may use tracemalloc/gc (and the
wall clock) -- it is measurement, not simulation state."""
import gc
import tracemalloc
from time import perf_counter_ns


def heap_sample():
    if not tracemalloc.is_tracing():
        tracemalloc.start()
    t0 = perf_counter_ns()
    current, peak = tracemalloc.get_traced_memory()
    gc.collect()
    return t0, current, peak
