"""Oracles for the set-up path: every topology table against a per-patch
group-by reference, and call-count guards that keep the build free of
per-patch numpy work (no Hypothesis here: the perf job runs the guards
on its reduced dependency set)."""

import numpy as np
import pytest

from repro.apps import kobayashi_mesh
from repro.framework import PatchSet, build_interfaces
from repro.mesh import ball_tet_mesh, cube_structured, disk_tri_mesh, reactor_mesh_2d
from repro.sweep import SweepTopology, level_symmetric
from repro.sweep.dag import angle_sets, directed_edges
from repro.sweep.priorities import STRATEGIES, batched_vertex_priorities

TABLES = ("init_counts", "dl_indptr", "dl_target", "dr_indptr", "dr_patch", "dr_local")


def _group(src, n, *payloads):
    """One patch's int32 CSR: a stable sort by source, rows by
    searchsorted."""
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(n + 1)).astype(np.int32)
    return (indptr, *(p[order].astype(np.int32) for p in payloads))


def reference_topology(pset, quad, tol=1e-12):
    """``(graphs, patch_dag, sets)`` built one patch at a time."""
    interfaces = build_interfaces(pset.mesh)
    sets = angle_sets(quad.directions, interfaces.normal, tol=tol)
    graphs, patch_dag = {}, {}
    for angles in sets:
        u, v = directed_edges(interfaces, quad.directions[angles[0]], tol)
        pu, pv = pset.cell_patch[u], pset.cell_patch[v]
        lu, lv = pset.cell_local[u], pset.cell_local[v]
        cross = pu != pv
        pairs = np.unique(np.stack([pu[cross], pv[cross]], axis=1), axis=0)
        for p, patch in enumerate(pset.patches):
            n = patch.num_cells
            loc, rem = (pu == p) & ~cross, (pu == p) & cross
            tables = (
                np.bincount(lv[pv == p], minlength=n).astype(np.int32),
                *_group(lu[loc], n, lv[loc]),
                *_group(lu[rem], n, pv[rem], lv[rem]),
            )
            for a in angles:
                graphs[(p, a)] = tables
                patch_dag[a] = pairs.reshape(-1, 2)
    return graphs, patch_dag, sets


PSETS = {
    # Uneven patches: 10 = 4 + 4 + 2, 10 = 3 * 3 + 1, 10 = 5 + 5.
    "kobayashi-uneven": lambda: (
        PatchSet.from_structured(kobayashi_mesh(10), (4, 3, 5), nprocs=2),
        level_symmetric(4),
    ),
    "ball": lambda: (
        PatchSet.from_unstructured(ball_tet_mesh(4), 60, nprocs=2),
        level_symmetric(2),
    ),
    "reactor": lambda: (
        PatchSet.from_unstructured(reactor_mesh_2d(6), 40, nprocs=2),
        level_symmetric(4),
    ),
    "disk": lambda: (
        PatchSet.from_unstructured(disk_tri_mesh(7), 30, nprocs=2),
        level_symmetric(2),
    ),
    # The corner patch is one cell: no local edges at all.
    "one-cell-patch": lambda: (
        PatchSet.from_structured(cube_structured(5), (4, 4, 4), nprocs=2),
        level_symmetric(2),
    ),
}


@pytest.fixture(scope="module", params=list(PSETS))
def built(request):
    pset, quad = PSETS[request.param]()
    return SweepTopology(pset, quad), reference_topology(pset, quad)


def test_every_table_equals_the_per_patch_group_by(built):
    topo, (graphs, patch_dag, sets) = built
    assert topo.angle_sets == sets
    assert list(topo.graphs) == [
        (p, a) for a in range(topo.num_angles) for p in range(topo.pset.num_patches)
    ]
    for key, want in graphs.items():
        g = topo.graphs[key]
        assert type(g.n_local) is int and g.n_local == len(want[0])
        for name, ref in zip(TABLES, want):
            got = getattr(g, name)
            assert got.dtype == ref.dtype, (key, name)
            assert np.array_equal(got, ref), (key, name)
            assert not got.flags.writeable, (key, name)
    for a, pairs in patch_dag.items():
        assert topo.patch_dag[a].dtype == pairs.dtype
        assert np.array_equal(topo.patch_dag[a], pairs)


def test_the_one_cell_patch_has_no_local_edges():
    pset, quad = PSETS["one-cell-patch"]()
    topo = SweepTopology(pset, quad)
    small = [p for p, patch in enumerate(pset.patches) if patch.num_cells == 1]
    assert small
    for p in small:
        g = topo.graph(p, 0)
        assert g.num_local_edges == 0 and g.dl_indptr.tolist() == [0, 0]


def _counting(monkeypatch, name):
    calls = [0]
    real = getattr(np, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_priority_pass_calls_no_argsort(monkeypatch, strategy):
    """The Kahn peel hands back the front order: grouping edges by
    front needs no sort."""
    pset, quad = PSETS["kobayashi-uneven"]()
    topo = SweepTopology(pset, quad)
    calls = _counting(monkeypatch, "argsort")
    batched_vertex_priorities(list(topo.graphs.values()), strategy)
    assert calls[0] == 0


def test_topology_searchsorted_calls_do_not_grow_with_patches(monkeypatch):
    """Row pointers come from one bincount per angle set, not one
    group-by per patch."""
    mesh, quad = cube_structured(8), level_symmetric(2)
    counts = []
    for shape in ((4, 4, 4), (2, 2, 2)):  # 8 patches, then 64
        pset = PatchSet.from_structured(mesh, shape, nprocs=2)
        calls = _counting(monkeypatch, "searchsorted")
        SweepTopology(pset, quad)
        counts.append(calls[0])
        monkeypatch.undo()
    assert counts[0] == counts[1]
