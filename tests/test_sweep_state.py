"""Count guards on what a sweep keeps per (patch, angle set) graph
(DESIGN.md 12.3-12.4): the topology tables are read-only int32, and a
graph keeps Python adjacency lists only once a partial run has read
them.  No Hypothesis here: the perf job runs these on its reduced
dependency set."""

import numpy as np
import pytest

from repro._util import ReproError
from repro.apps import JSNTS, JSNTU
from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.sweep import SweepTopology, level_symmetric
from repro.sweep import dag
from repro.sweep.sweep_program import SweepPatchProgram

TABLES = ("init_counts", "dl_indptr", "dl_target", "dr_indptr", "dr_patch", "dr_local")

APPS = {
    # 4^3 patches of 64 cells, grain 1000: every popping run is a
    # whole-patch task.
    "kobayashi": lambda: JSNTS.kobayashi(
        8, total_cores=12, patch_shape=(4, 4, 4), quadrature=level_symmetric(4)),
    # Patches of ~120 cells beside grain 64: every popping run is partial.
    "ball": lambda: JSNTU.ball(5, total_cores=12, patch_size=120, grain=64,
                               groups=1),
    "reactor": lambda: JSNTU.reactor(10, total_cores=12, patch_size=120,
                                     grain=64, groups=1),
}


def _partial_runs(monkeypatch) -> set:
    """Spy: the ids of the graphs some run of which popped vertices
    without popping its whole graph."""
    partial = set()
    real = SweepPatchProgram.compute

    def compute(self):
        before = self._solved
        real(self)
        if 0 < self._solved - before < self.graph.n_local:
            partial.add(id(self.graph))

    monkeypatch.setattr(SweepPatchProgram, "compute", compute)
    return partial


def _holding_lists(topo) -> set:
    return {id(g) for g in topo.graphs.values() if g._flat_cache is not None}


def test_two_kobayashi_sweeps_that_fit_the_grain_keep_no_adjacency_lists(
        monkeypatch):
    partial = _partial_runs(monkeypatch)
    app = APPS["kobayashi"]()
    topo = app.solver.topology
    first = app.sweep_report(12)
    second = app.sweep_report(12)
    assert first.makespan == second.makespan
    assert partial == set()
    # Every graph recorded its task, and none keeps the lists it used.
    assert all(g.tasks for g in topo.graphs.values())
    assert _holding_lists(topo) == set()


@pytest.mark.parametrize("name", ["ball", "reactor"])
def test_graphs_with_partial_runs_keep_their_adjacency_lists(monkeypatch, name):
    partial = _partial_runs(monkeypatch)
    app = APPS[name]()
    topo = app.solver.topology
    app.sweep_report(12)
    assert partial  # the patches exceed the grain
    assert _holding_lists(topo) == partial
    assert all(g.tasks == {} for g in topo.graphs.values())
    cached = {id(g): g._flat_cache for g in topo.graphs.values()}
    app.sweep_report(12)  # a later sweep reads the same lists again
    assert all(g._flat_cache is cached[id(g)] for g in topo.graphs.values())


@pytest.mark.parametrize("name", list(APPS))
def test_topology_tables_are_readonly_int32(name):
    app = APPS[name]()
    for g in app.solver.topology.graphs.values():
        for table in TABLES:
            got = getattr(g, table)
            assert got.dtype == np.int32, (g.patch, table)
            assert not got.flags.writeable, (g.patch, table)
            with pytest.raises(ValueError):
                got[:1] = 0
        # Keys and priorities keep their width.
        assert g.vertex_keys.dtype == np.int64
        assert g.vertex_prio.dtype == np.float64


def test_a_table_value_past_int32_is_refused(monkeypatch):
    """Narrowing never wraps: past the int32 range the build is
    refused (the limit is lowered here so a small mesh reaches it)."""
    pset = PatchSet.from_structured(cube_structured(6), (4, 4, 4), nprocs=1)
    quad = level_symmetric(2)
    top = max(int(getattr(g, t).max(initial=0))
              for g in SweepTopology(pset, quad).graphs.values() for t in TABLES)
    monkeypatch.setattr(dag, "_INT32_MAX", top)  # exactly at the limit
    SweepTopology(pset, quad)
    monkeypatch.setattr(dag, "_INT32_MAX", top - 1)
    with pytest.raises(ReproError, match="int32"):
        SweepTopology(pset, quad)
