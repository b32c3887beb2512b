"""Program start tables: a sweep program starts from its graph.

Every :class:`PatchAngleGraph` carries ``start = (keys, counts,
sources)``, built where its keys are set (the batched priority pass,
the coarsened build, a ``dataclasses.replace`` copy); ``init()`` copies
two lists and shares the key table.  The table must equal what the
programs used to derive from numpy (a), follow re-applied priorities
(b), and be built once per graph, with no numpy in ``init()`` (c).
"""

import dataclasses
import sys
from array import array

import numpy as np
import pytest

from repro._util import ReproError
from repro.apps import JSNTS, JSNTU
from repro.runtime import DataDrivenRuntime, Machine
from repro.sweep import SnSolver, SweepTopology, apply_priorities, level_symmetric
from repro.sweep.dag import PatchAngleGraph, heap_keys
from repro.sweep.priorities import STRATEGIES
from repro.sweep.sweep_program import SweepPatchProgram

_MACHINE = Machine(cores_per_proc=4)


def _structured(strategy):
    app = JSNTS.kobayashi(8, total_cores=12, patch_shape=(4, 4, 4),
                          quadrature=level_symmetric(4))
    s = app.solver
    return SnSolver(app.pset, s.quadrature, s.materials, s.source, grain=16,
                    strategy=f"slbd+{strategy}")


def _unstructured(strategy):
    s = JSNTU.ball(4, total_cores=12, patch_size=40, groups=1).solver
    return SnSolver(s.pset, s.quadrature, s.materials, s.source, grain=16,
                    strategy=f"slbd+{strategy}")


def _graphs(topology, strategy):
    s = (_structured if topology != "unstructured" else _unstructured)(strategy)
    if topology == "coarsened":
        return s.record_coarsened()
    return s.topology.graphs


def _derived(g: PatchAngleGraph):
    """The start state as ``SweepPatchProgram.init`` derived it per program."""
    keys = heap_keys(g.vertex_prio, g.n_local).tolist()
    sources = [keys[v] for v in np.nonzero(g.init_counts == 0)[0]]
    sources.sort()
    return keys, g.init_counts.tolist(), sources


# -- (a) the table is the numpy derivation ------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("topology", ["structured", "unstructured", "coarsened"])
def test_start_table_equals_the_numpy_derivation(topology, strategy):
    graphs = _graphs(topology, strategy)
    for g in {id(g): g for g in graphs.values()}.values():
        keys, counts, sources = g.start
        assert isinstance(keys, array) and keys.typecode == "q"
        want_keys, want_counts, want_sources = _derived(g)
        assert keys.tolist() == want_keys == g.vertex_keys.tolist()
        assert counts == want_counts
        assert sources == want_sources
        assert all(type(x) is int for x in counts + sources)
    # A copy of a graph keys itself from the copy's own tables.
    g = next(iter(graphs.values()))
    other = dataclasses.replace(g, init_counts=np.zeros(g.n_local, dtype=np.int64))
    assert other.start[1] == [0] * g.n_local
    assert other.start[2] == sorted(g.start[0])


def test_a_graph_without_keys_cannot_start_a_program():
    s = _structured("slbd")
    topo = SweepTopology(s.pset, s.quadrature)  # no priorities applied
    prog = SweepPatchProgram(topo.graph(0, 0), s.pset.patches[0].cells, angle=0)
    with pytest.raises(ReproError, match="patch 0 has no vertex keys"):
        prog.init()


# -- (b) re-applied priorities re-key the programs ----------------------------------


def test_reapplied_priorities_start_programs_from_the_new_keys():
    s = _structured("slbd")
    topo = s.topology
    before = {id(g): g.start for g in topo.graphs.values()}
    apply_priorities(topo, "slbd+bfs")
    programs, _ = s.build_programs(compute=False)
    moved = 0
    for prog in programs:
        prog.init()
        keys, counts, sources = prog.graph.start
        assert prog.graph.start is not before[id(prog.graph)]
        assert prog._keys is keys  # shared, not copied
        assert prog._counts == counts and prog._counts is not counts
        assert prog._heap == sources and prog._heap is not sources
        assert sources == _derived(prog.graph)[2]
        moved += sources != before[id(prog.graph)][2]
    assert moved  # bfs and slbd order some sources differently


# -- (c) count guard ------------------------------------------------------------------


def _numpy_calls(fn) -> list[str]:
    """Names of the numpy functions and array methods ``fn`` calls."""
    seen: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("numpy"):
            seen.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or type(owner).__module__
            if module.split(".")[0] == "numpy":
                seen.append(arg.__name__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_start_tables_are_built_once(monkeypatch):
    """Start tables are built with the keys, once per graph, at set-up;
    two program sets and their runs build none, and ``init()`` calls
    no numpy."""
    built: list[int] = []
    real_set_keys = PatchAngleGraph.set_keys

    def set_keys(self, keys):
        built.append(id(self))
        real_set_keys(self, keys)

    monkeypatch.setattr(PatchAngleGraph, "set_keys", set_keys)
    s = _structured("slbd")
    graphs = {id(g) for g in s.topology.graphs.values()}
    assert sorted(built) == sorted(graphs)  # one table per (patch, angle set)

    inits: list[list[str]] = []
    real_init = SweepPatchProgram.init

    def init(self):
        inits.append(_numpy_calls(lambda: real_init(self)))

    monkeypatch.setattr(SweepPatchProgram, "init", init)
    built.clear()
    for _ in range(2):
        programs, _ = s.build_programs()
        DataDrivenRuntime(8, machine=_MACHINE).run(programs, s.pset.patch_proc)
    assert built == []
    assert len(inits) == 2 * len(s.topology.graphs)
    assert all(calls == [] for calls in inits)
