# simlint: module=repro.core.fixture_r8_bad
"""R8 positive: model code moving the simulation clock."""


def catch_up(sim, host, deadline):
    sim.now = deadline  # expect: R8
    host.clock.now += 10  # expect: R8
    setattr(sim, "now", deadline)  # expect: R8
    sim.now, late = deadline, True  # expect: R8
    del host.clock.now  # expect: R8
    return late
