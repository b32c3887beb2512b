"""Angle sets (DESIGN.md 12.4): ``dag.angle_sets`` groups the angles
whose upwind sign pattern agrees, and a topology builds one shared,
read-only graph per (patch, set).

The oracle is the build the sets replaced - one single-angle topology
per angle: every table, count, patch digraph and priority of the shared
graph must equal it (a), the sets must be maximal (b), the sets the
solver's plan peels once must be what hashing kernel tables gives (c), broken
cycles must add up per angle (d), the object counts must show the
sharing (e), and what is shared must refuse writes while everything
that reads it still runs (f).
"""

import numpy as np
import pytest

import repro.sweep.dag as dagmod
import repro.sweep.solver as solver_module
from repro._util import ReproError
from repro.apps import JSNTS, JSNTU
from repro.framework import PatchSet
from repro.mesh import warped_quad_mesh
from repro.runtime import DataDrivenRuntime
from repro.sweep import (
    Material,
    MaterialMap,
    SnSolver,
    SweepTopology,
    apply_priorities,
    level_symmetric,
    patch_priorities,
    product_quadrature,
)
from repro.sweep.coarsened import coarsened_is_acyclic
from repro.sweep.priorities import ANGLE_FACTOR, STRATEGIES
from repro.sweep.quadrature import Quadrature

TABLES = ("init_counts", "dl_indptr", "dl_target",
          "dr_indptr", "dr_patch", "dr_local")


def _warped_solver():
    mesh = warped_quad_mesh((10, 10))
    pset = PatchSet.from_unstructured(mesh, 25, nprocs=2)
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.3), mesh.num_cells)
    return SnSolver(pset, level_symmetric(4), mm, np.ones((mesh.num_cells, 1)),
                    scheme="step", grain=16)


# name -> (solver factory, sorted sizes of its angle sets)
CASES = {
    "kobayashi": (lambda: JSNTS.kobayashi(
        8, patch_shape=(4, 4, 4), quadrature=product_quadrature(2, 12),
    ).solver, [3] * 8),
    "reactor": (lambda: JSNTU.reactor(
        10, patch_size=120, groups=1, quadrature=level_symmetric(4),
    ).solver, [2] * 12),
    "ball": (lambda: JSNTU.ball(
        5, patch_size=120, groups=1, quadrature=level_symmetric(4),
    ).solver, [1] * 24),
    "warped": (_warped_solver, [6] * 4),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """(solver, expected set sizes, one single-angle topology per angle)."""
    build, sizes = CASES[request.param]
    s = build()
    q = s.quadrature
    singles = [
        SweepTopology(
            s.pset, Quadrature(q.directions[a:a + 1], q.weights[a:a + 1]),
            interfaces=s.interfaces,
        )
        for a in range(q.num_angles)
    ]
    return s, sizes, singles


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and np.array_equal(x, y)


def _same_tables(topo_a, a, topo_b, b) -> bool:
    """Every graph table and the patch digraph of two (topology, angle)s."""
    return _same(topo_a.patch_dag[a], topo_b.patch_dag[b]) and all(
        _same(getattr(topo_a.graph(p, a), t), getattr(topo_b.graph(p, b), t))
        for p in range(topo_a.pset.num_patches) for t in TABLES
    )


# -- (a) the shared graph is the per-angle graph ---------------------------------


def test_sets_partition_the_angles_in_first_angle_order(case):
    s, sizes, _ = case
    sets = s.topology.angle_sets
    assert sorted(map(len, sets)) == sizes
    assert sorted(a for angles in sets for a in angles) == list(
        range(s.quadrature.num_angles))
    assert all(angles == sorted(angles) for angles in sets)
    assert [angles[0] for angles in sets] == sorted(a[0] for a in sets)


def test_shared_tables_equal_the_single_angle_build(case):
    s, _, singles = case
    topo = s.topology
    assert list(topo.graphs) == [  # angle-major keys: the program order
        (p, a) for a in range(topo.num_angles)
        for p in range(topo.pset.num_patches)
    ]
    assert list(topo.patch_dag) == list(range(topo.num_angles))
    for a, single in enumerate(singles):
        assert _same_tables(topo, a, single, 0)
        for p in range(topo.pset.num_patches):
            g, want = topo.graph(p, a), single.graph(p, 0)
            assert (g.patch, g.n_local) == (want.patch, want.n_local)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_shared_priorities_equal_the_single_angle_build(case, strategy):
    s, _, singles = case
    topo = SweepTopology(s.pset, s.quadrature, interfaces=s.interfaces)
    static = apply_priorities(topo, f"{strategy}+{strategy}")
    na = topo.num_angles
    for a, single in enumerate(singles):
        apply_priorities(single, f"{strategy}+{strategy}")
        term = patch_priorities(single, strategy)
        for p in range(topo.pset.num_patches):
            g, want = topo.graph(p, a), single.graph(p, 0)
            assert _same(g.vertex_prio, want.vertex_prio)
            assert _same(g.vertex_keys, want.vertex_keys)
            assert static[(p, a)] == (na - a) * ANGLE_FACTOR + term[(p, 0)]
    assert len(static) == len(topo.graphs)


# -- (b) the sets are maximal: the "iff" ---------------------------------------------


def test_angles_share_a_set_iff_their_single_angle_tables_agree(case):
    s, _, singles = case
    set_of = {a: i for i, angles in enumerate(s.topology.angle_sets)
              for a in angles}
    for a in range(len(singles)):
        for b in range(a + 1, len(singles)):
            twins = _same_tables(singles[a], 0, singles[b], 0)
            assert twins == (set_of[a] == set_of[b]), (a, b)


# -- (c) the solver's plan sets -------------------------------------------------------


def test_plan_sets_are_the_kernels_grouped_by_index_tables(case, monkeypatch):
    """``angle_sets`` over interior + boundary normals - what
    ``sweep_plan`` peels once per - against the kernels themselves."""
    s, _, _ = case
    by_tables: dict[tuple, list[int]] = {}
    for a in range(s.quadrature.num_angles):
        k = s.kernel(a)
        key = tuple(t.tobytes() for t in (k.in_indptr, k.in_slot,
                                          k.out_indptr, k.out_slot))
        by_tables.setdefault(key, []).append(a)
    sets = dagmod.angle_sets(
        s.quadrature.directions, s.interfaces.normal, s.boundary.normal,
        tol=1e-12,
    )
    assert sets == list(by_tables.values())
    # ... and the plan runs one Kahn peel per such set, shared by its angles.
    peels = []
    real = solver_module.topological_levels

    def recorded(*args):
        peels.append(real(*args))
        return peels[-1]

    monkeypatch.setattr(solver_module, "topological_levels", recorded)
    fresh = SnSolver(s.pset, s.quadrature, s.materials, s.source,
                     scheme=s.scheme)
    plan = fresh.sweep_plan()
    assert len(peels) == len(sets)
    assert len(plan.levels) == max(len(lv) for lv in peels)


# -- (e) object counts ------------------------------------------------------------------


def test_one_graph_object_per_patch_and_set(case):
    s, sizes, _ = case
    topo = s.topology
    npat = topo.pset.num_patches
    assert len(topo.graphs) == npat * topo.num_angles
    assert len({id(g) for g in topo.graphs.values()}) == npat * len(sizes)
    assert len({id(d) for d in topo.patch_dag.values()}) == len(sizes)
    for angles in topo.angle_sets:
        for p in range(npat):
            assert len({id(topo.graph(p, a)) for a in angles}) == 1


def test_unknown_patch_or_angle_is_a_structured_error(case):
    s, _, _ = case
    topo = s.topology
    npat, na = topo.pset.num_patches, topo.num_angles
    for patch, angle in [(npat, 0), (0, na), (-1, 0), (0, -1)]:
        with pytest.raises(
            ReproError, match=rf"0\.\.{npat - 1}.*0\.\.{na - 1}"
        ) as err:
            topo.graph(patch, angle)
        assert repr(patch) in str(err.value) and repr(angle) in str(err.value)
    assert topo.graph(npat - 1, na - 1) is topo.graphs[(npat - 1, na - 1)]


# -- (f) shared means immutable -----------------------------------------------------------


@pytest.mark.parametrize("name", list(CASES))
def test_shared_tables_refuse_writes_and_every_reader_still_runs(name):
    s = CASES[name][0]()  # its own solver: this test re-prioritises it
    topo = s.topology
    for g in topo.graphs.values():
        for table in TABLES + ("vertex_prio", "vertex_keys"):
            array = getattr(g, table)
            assert not array.flags.writeable, table
            if array.size:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    # A full DES sweep, bitwise the scalar oracle's flux ...
    ref = s.sweep_once(mode="fast")[0]
    progs, faces = s.build_programs()
    rep = DataDrivenRuntime(12 * s.pset.num_procs).run(progs, s.pset.patch_proc)
    assert rep.vertices_solved == topo.num_vertices
    assert np.array_equal(s.accumulate(faces)[0], ref)
    # ... cluster recording and coarsening ...
    assert coarsened_is_acyclic(s.record_coarsened())
    # ... and every vertex strategy, batched over the same tables.
    for strategy in STRATEGIES:
        apply_priorities(topo, f"fifo+{strategy}")
        assert all(not g.vertex_keys.flags.writeable
                   for g in topo.graphs.values())
