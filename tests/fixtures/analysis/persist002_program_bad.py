# repro: module=repro.sweep.badprogram
"""Golden violation: a patch-program that names its own mutable core.
``checkpoint()`` delegates to ``state_dict()``, so nothing copies "every
attribute" any more: a field the pair forgets is silently dropped by
in-sim checkpoints, runtime snapshots and resume alike."""


class Base:
    def checkpoint(self):
        return self.state_dict()

    def restore(self, snapshot):
        self.load_state_dict(snapshot)


class Program(Base):
    def __init__(self, graph):
        self.graph = graph
        self._counts = []
        self._applied = {}

    def _bind_graph(self):
        self._keys = list(range(self.graph.n))  # rebuilt, but unmarked

    def init(self):
        self._bind_graph()
        self._counts = list(self.graph.counts)

    def input(self, stream):
        self._applied = {**self._applied, stream.src: stream.seq}  # forgotten
        self._counts = [c - 1 for c in self._counts]

    def state_dict(self):
        return {"counts": self._counts[:]}

    def load_state_dict(self, d):
        self._counts = d["counts"][:]
