"""Unit tests for the disk model."""

from repro.apps.diskmodel import BANDWIDTH_BPS, HICCUP_US, PER_OP_US, DiskModel
from repro.sim.engine import Simulator
from repro.sim.process import Process


def run_io(disk, op, sizes):
    sim = disk.sim
    times = []

    def proc():
        for n in sizes:
            before = sim.now
            yield from (disk.read(n) if op == "read" else disk.write(n))
            times.append(sim.now - before)

    Process(sim, proc())
    sim.run()
    return times


def test_read_takes_time():
    sim = Simulator()
    disk = DiskModel(sim, hiccup_prob=0.0)
    times = run_io(disk, "read", [64 * 1024])
    expected = PER_OP_US + round(64 * 1024 * 8 * 1e6 / BANDWIDTH_BPS)
    assert times == [expected]


def test_write_accounting():
    """Each write is one operation: its fixed overhead plus its bytes
    at the disk's bandwidth."""
    sim = Simulator()
    disk = DiskModel(sim, hiccup_prob=0.0)
    times = run_io(disk, "write", [1000, 2000])
    assert times == [PER_OP_US + round(n * 8 * 1e6 / BANDWIDTH_BPS)
                     for n in (1000, 2000)]
    assert sim.now == sum(times)


def test_larger_ops_take_longer():
    sim = Simulator()
    disk = DiskModel(sim, hiccup_prob=0.0)
    t = run_io(disk, "read", [10_000, 100_000])
    assert t[1] > t[0]


def test_hiccups_add_delay():
    sim = Simulator()
    steady = DiskModel(sim, hiccup_prob=0.0)
    jittery = DiskModel(sim, hiccup_prob=1.0, seed=1)
    t1 = run_io(steady, "read", [1000])
    sim2 = Simulator()
    jittery = DiskModel(sim2, hiccup_prob=1.0, seed=1)
    t2 = run_io(jittery, "read", [1000])
    assert t2[0] == t1[0] + HICCUP_US


def test_deterministic_per_seed():
    def trace(seed):
        sim = Simulator()
        disk = DiskModel(sim, hiccup_prob=0.3, seed=seed)
        return run_io(disk, "read", [4096] * 30)

    assert trace(5) == trace(5)
    assert trace(5) != trace(6)
