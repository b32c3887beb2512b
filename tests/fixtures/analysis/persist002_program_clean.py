# repro: module=repro.sweep.cleanprogram
"""Clean twin: the mutable core is captured, and what derives from the
shared graph is rebuilt on load by the code ``init()`` uses and marked
transient with its reason."""


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
        self._keys = list(range(self.graph.n))  # repro: transient - pure function of graph

    def init(self):
        self._bind_graph()
        self._counts = list(self.graph.counts)

    def input(self, stream):
        self._applied = {**self._applied, stream.src: stream.seq}
        self._counts = [c - 1 for c in self._counts]

    def state_dict(self):
        return {"counts": self._counts[:], "applied": dict(self._applied)}

    def load_state_dict(self, d):
        self._bind_graph()
        self._counts = d["counts"][:]
        self._applied = dict(d["applied"])
