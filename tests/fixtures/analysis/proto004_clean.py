# repro: module=repro.runtime.goodproto
"""Clean: push and dispatch sides agree - by a compare branch or by a
kind-table registration - and hb kinds are known."""

from repro.runtime.simulator import KindRow


class MiniSim:
    def __init__(self):
        self.events = []

    def push(self, t, kind, data):
        self.events.append((t, kind, data))

    def pop(self):
        return self.events.pop(0)

    def note(self, t, kind, detail=None):
        return (t, kind, detail)


class MiniHbChecker:
    def _on_send(self, rec):
        return rec


def loop(sim):
    sim.push(0.0, "tick", None)
    now, kind, data = sim.pop()
    if kind == "tick":
        sim.note(now, "hb_send")
    return data


class Layer:
    """Owns ``tock``: dispatched through its registered row, no
    ``kind ==`` branch anywhere."""

    def __init__(self, sim):
        self.sim = sim

    def kinds(self):
        return [KindRow("tock", self.on_tock, progress=True)]

    def on_tock(self, data, now):
        self.sim.push(now + 1.0, "tock", data)
