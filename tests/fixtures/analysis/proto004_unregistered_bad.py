# repro: module=repro.runtime.badtable
"""Golden violation: a layer pushes a kind no layer registered a row
for (and no loop compares against) - PROTO004 flags the push."""

from repro.runtime.simulator import KindRow


class Layer:
    def __init__(self, sim):
        self.sim = sim

    def kinds(self):
        return [KindRow("tock", self.on_tock, progress=True)]

    def on_tock(self, data, now):
        self.sim.push(now + 1.0, "tock", data)
        self.sim.push(now + 2.0, "tack", data)  # pushed, never registered
