"""fast-level regression: the compiled sweep plans are bitwise-identical
to the scalar ``fast`` sweep on every mesh family and boundary kind.

``AngleKernel.solve_level`` batches each dependency level of an angle
set through one ``(m,c,1,k) @ (m,c,k,ng)`` matmul per in-degree group,
which runs the same BLAS dot per cell as ``solve_cells``'s
``in_coeff @ psi_faces[isl]``.  These tests pin that equivalence -
``np.array_equal``, no tolerance - because ``fast-level`` is the
default ``sweep_once`` mode and any float-order drift would silently
change every solver result.
"""

import numpy as np
import pytest

from repro import DataDrivenRuntime
from repro.apps import JSNTS, JSNTU
from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.runtime import Machine
from repro.sweep import (
    Material, MaterialMap, Quadrature, SnSolver, level_symmetric,
    product_quadrature,
)
from repro.sweep.kernels import SweepPlan


def _koba(**kw):
    """Structured DD; S4 puts 3 non-adjacent angles in every octant."""
    app = JSNTS.kobayashi(
        12, total_cores=24, quadrature=level_symmetric(4), patch_shape=(6, 6, 6)
    )
    s = app.solver
    return SnSolver(app.pset, s.quadrature, s.materials, s.source, **kw)


def _ball(groups=4):
    return JSNTU.ball(10, total_cores=24, patch_size=120, groups=groups).solver


def _reactor():
    return JSNTU.reactor(8, total_cores=12, patch_size=60, groups=4).solver


def _reactor_axial():
    """2-D mesh swept along +-z too: no face is active there, so every
    cell has in-degree 0 and the angle is one level without groups."""
    base = _reactor()
    d = np.array([[0, 0, 1.0], [0, 0, -1.0], [0.6, 0.8, 0], [-0.8, 0.6, 0]])
    quad = Quadrature(d, np.full(4, np.pi))
    return SnSolver(base.pset, quad, base.materials, base.source)


def _cube(groups=1, **kw):
    mesh = cube_structured(6, length=3.0)
    mm = MaterialMap.uniform(
        Material.isotropic(1.0, 0.5, groups=groups), mesh.num_cells
    )
    return SnSolver(
        PatchSet.single_patch(mesh), product_quadrature(2, 12), mm,
        np.ones((mesh.num_cells, groups)), **kw,
    )


def _incident(centroids, direction):
    return 1.0 + np.abs(centroids @ direction)


#: name -> (fresh solver, sizes of its angle sets).  On a 2-D mesh the
#: +z / -z twins of an ordinate see the same geometry and pair up.
SOLVERS = {
    "koba-dd-fixup": (_koba, {3}),
    "koba-dd-nofixup": (lambda: _koba(fixup=False), {3}),
    "koba-step": (lambda: _koba(scheme="step"), {3}),
    "ball-step-4g": (_ball, {1}),
    "ball-step-1g": (lambda: _ball(groups=1), {1}),
    "reactor-2d": (_reactor, {2}),
    "reactor-2d-indegree0": (_reactor_axial, {1, 2}),
    "cube-4g": (lambda: _cube(groups=4), {3}),
    "cube-reflecting": (lambda: _cube(reflecting=True), {3}),
    "cube-incident-callable": (lambda: _cube(boundary_flux=_incident), {3}),
}


def _parts_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("name", SOLVERS)
def test_fast_level_is_bitwise_fast(name):
    """Two sweeps each (the second sees the lagged reflecting store),
    with a random scatter source, on separate solvers."""
    make, set_sizes = SOLVERS[name]
    fast, level = make(), make()
    rng = np.random.default_rng(7)
    scatter = rng.random((fast.mesh.num_cells, fast.num_groups))
    for sc in (None, scatter):
        _parts_equal(
            fast.sweep_once(sc, mode="fast"),
            level.sweep_once(sc, mode="fast-level"),
        )
    assert {len(p.angles) for p in level.sweep_plans()} == set_sizes


def test_des_accumulate_is_bitwise_fast_level():
    s = _cube()
    s = SnSolver(
        PatchSet.from_structured(s.mesh, (3, 3, 3), nprocs=2), s.quadrature,
        s.materials, s.source, grain=8,
    )
    reference, leakage, _ = s.sweep_once(mode="fast-level")
    programs, faces = s.build_programs(compute=True)
    DataDrivenRuntime(8, machine=Machine(cores_per_proc=4)).run(
        programs, s.pset.patch_proc
    )
    phi, leak = s.accumulate(faces)
    assert np.array_equal(phi, reference)
    assert np.array_equal(leak, leakage)


def test_sigma_t_v_may_be_one_value_per_cell():
    """``solve_cells`` documents a 1-D ``sigma_t_v``; the plan takes it too."""
    flat, full = _cube(groups=4), _cube(groups=4)
    flat.sigma_t_v = flat.sigma_t_v[:, 0].copy()
    want = full.sweep_once(mode="fast-level")
    _parts_equal(flat.sweep_once(mode="fast-level"), want)
    _parts_equal(flat.sweep_once(mode="fast"), want)


def test_source_iteration_default_is_fast_level():
    s = _ball()
    res_default = s.source_iteration(tol=1e-5, max_iterations=8)
    res_fast = s.source_iteration(tol=1e-5, max_iterations=8, mode="fast")
    assert np.array_equal(res_default.phi, res_fast.phi)
    assert res_default.iterations == res_fast.iterations


def test_batched_matmul_matches_blas_dot():
    # The micro-fact the kernel relies on: a stacked (m,c,1,k)@(m,c,k,ng)
    # matmul reproduces the per-cell 1-D @ 2-D dot bit for bit.
    rng = np.random.default_rng(3)
    for k in range(1, 8):
        coeff = rng.standard_normal((3, 64, k))
        flux = rng.standard_normal((3, 64, k, 4))
        batched = np.matmul(coeff[:, :, None, :], flux)[:, :, 0]
        for a in range(3):
            for i in range(64):
                assert np.array_equal(batched[a, i], coeff[a, i] @ flux[a, i])


class TestPlanStructure:
    def test_tables_are_int32_and_shared_by_the_octant(self):
        s = _koba()
        plans = s.sweep_plans()
        assert len(plans) == 8
        for p in plans:
            assert len({s.quadrature.octant_of(a) for a in p.angles}) == 1
            for table in (p.cells, p.slots, p.osl, p.oseg, p.pair):
                assert table.dtype == np.int32
            assert p.coeff.shape == (3, len(p.slots))
            assert p.den2.shape == (3, s.mesh.num_cells)
        plan_of = {a: p for p in plans for a in p.angles}
        # S4 angles a, a + 8, a + 16 share an octant, hence the tables.
        assert plan_of[0].slots is plan_of[8].slots is plan_of[16].slots
        assert sorted(plan_of) == list(range(24))

    def test_unstructured_angles_are_singletons_without_pairs(self):
        s = _ball()
        plans = s.sweep_plans()
        assert [p.angles for p in plans] == [[a] for a in range(len(plans))]
        assert all(p.pair is None for p in plans)

    def test_levels_tile_the_tables(self):
        for s in (_koba(), _ball(), _reactor_axial()):
            for p in s.sweep_plans():
                k = p.kernels[0]
                assert sorted(p.cells.tolist()) == list(range(s.mesh.num_cells))
                indeg = np.diff(k.in_indptr)[p.cells]
                c_end = s_end = o_end = 0
                for c0, c1, groups, o0, o1 in p.levels:
                    assert (c0, o0) == (c_end, o_end)
                    for a, b, deg, s0, s1 in groups:
                        assert np.all(indeg[c0 + a : c0 + b] == deg) and deg > 0
                        assert (s0, s1 - s0) == (s_end, (b - a) * deg)
                        s_end = s1
                    covered = sum(b - a for a, b, *_ in groups)
                    assert covered == np.count_nonzero(indeg[c0:c1])
                    assert np.all(p.oseg[o0:o1] < c1 - c0)
                    c_end, o_end = c1, o1
                assert (c_end, s_end, o_end) == (
                    len(p.cells), len(p.slots), len(p.osl)
                )

    def test_second_sweep_rebuilds_nothing(self, monkeypatch):
        import repro.sweep.solver as solver_module

        s = _cube()
        s.sweep_once()
        plans = s.sweep_plans()
        tables = [p.slots for p in plans]

        def boom(*a, **kw):
            raise AssertionError("plan rebuilt")

        monkeypatch.setattr(solver_module, "topological_levels", boom)
        monkeypatch.setattr(solver_module, "SweepPlan", boom)
        s.sweep_once()
        s.source_iteration(max_iterations=2)
        assert s.sweep_plans() is plans
        assert all(p.slots is t for p, t in zip(plans, tables))

    def test_plans_are_smaller_than_the_kernels_csr(self):
        def nbytes(obj, names):
            tables = [getattr(obj, n) for n in names.split()]
            return sum(t.nbytes for t in tables if t is not None)

        for s in (_koba(), _ball()):
            plan = sum(
                nbytes(p, "cells slots osl oseg pair coeff den2")
                for p in s.sweep_plans()
            )
            csr = sum(
                nbytes(s.kernel(a), "in_indptr in_slot in_coeff out_indptr "
                                    "out_slot out_coeff out_coeff_sum")
                for a in range(s.quadrature.num_angles)
            )
            assert plan <= csr

    def test_empty_level_is_a_noop(self):
        s = _cube()
        (plan, *_rest) = s.sweep_plans()
        order = plan.cells.astype(np.int64)
        levels = [np.sort(order[c0:c1]) for c0, c1, *_ in plan.levels]
        empty = np.zeros(0, dtype=np.int64)
        padded = SweepPlan(
            plan.kernels, plan.angles, [empty, *levels[:2], empty, *levels[2:], empty]
        )
        assert len(padded.levels) == len(plan.levels) + 3
        src_v = s._angle_source_v(np.zeros((s.mesh.num_cells, 1)))
        out = []
        for p in (plan, padded):
            psi_faces = np.ones((3, p.kernels[0].num_slots, 1))
            psi_cell = np.zeros((3, s.mesh.num_cells, 1))
            p.sweep(src_v, s.sigma_t_v, psi_faces, psi_cell)
            out.append((psi_faces, psi_cell))
        _parts_equal(out[0], out[1])
