# simlint: module=repro.sim.engine
"""R8 negative: the engine's run loop is the one writer."""


class Simulator:
    def __init__(self):
        self.now = 0

    def run(self, when):
        self.now = when
