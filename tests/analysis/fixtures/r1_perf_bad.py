# simlint: module=repro.obs.perf.fixture_r1_perf_bad
"""R1 positive: tracemalloc/gc measurement machinery outside the
profiler boundary -- in the tax-table vocabulary package, which reads
no clock and is no carve-out.  Heap and collector state vary with the
hosting machine exactly like a clock read."""
import gc
import tracemalloc
from tracemalloc import take_snapshot


def leak_hunt(receiver):
    tracemalloc.start()  # expect: R1
    receiver.drain()
    gc.collect()  # expect: R1
    current, peak = tracemalloc.get_traced_memory()  # expect: R1
    snap = take_snapshot()  # expect: R1
    tracemalloc.stop()  # expect: R1
    return current, peak, snap


def quiesce():
    gc.disable()  # expect: R1
    gc.set_threshold(0)  # expect: R1
