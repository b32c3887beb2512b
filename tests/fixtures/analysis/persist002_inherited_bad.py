# repro: module=repro.sweep.badinherit
"""Golden violation: a class that inherits ``state_dict`` is checked
too - the attribute only the subclass assigns is outside the round
trip it inherits."""


class Program:
    def __init__(self):
        self._counts = []

    def input(self, stream):
        self._counts = self._counts + [stream]

    def state_dict(self):
        return {"counts": list(self._counts)}

    def load_state_dict(self, d):
        self._counts = list(d["counts"])


class Coarse(Program):
    def input(self, stream):
        super().input(stream)
        self._clusters = stream  # not in the inherited state_dict
