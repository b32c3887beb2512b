"""Tests for SnSolver: execution-mode equivalence and solver behaviour."""

import numpy as np
import pytest

from repro._util import ReproError
from repro.framework import PatchSet
from repro.sweep import (
    Material,
    MaterialMap,
    PriorityStrategy,
    SnSolver,
    level_symmetric,
)
from tests.conftest import make_solver


class TestModeEquivalence:
    """fast / engine / DES execution must agree bitwise (same kernel,
    same per-cell arithmetic, different schedules)."""

    def test_structured_fast_vs_engine(self, cube_solver):
        pf, lf, _ = cube_solver.sweep_once(mode="fast")
        pe, le, stats = cube_solver.sweep_once(mode="engine")
        np.testing.assert_array_equal(pf, pe)
        np.testing.assert_array_equal(lf, le)
        assert stats.executions > 0

    def test_unstructured_fast_vs_engine(self, disk_solver):
        pf, lf, _ = disk_solver.sweep_once(mode="fast")
        pe, le, _ = disk_solver.sweep_once(mode="engine")
        np.testing.assert_array_equal(pf, pe)

    @pytest.mark.parametrize("strategy", ["fifo", "bfs", "ldcp", "slbd",
                                          "ldcp+slbd", "bfs+slbd"])
    def test_priorities_do_not_change_numerics(self, cube8_patches, strategy):
        base = make_solver(cube8_patches, strategy="fifo")
        other = make_solver(cube8_patches, strategy=strategy)
        p0, _, _ = base.sweep_once(mode="engine")
        p1, _, _ = other.sweep_once(mode="engine")
        np.testing.assert_array_equal(p0, p1)

    @pytest.mark.parametrize("grain", [1, 7, 64, 100000])
    def test_grain_does_not_change_numerics(self, cube8_patches, grain):
        s = make_solver(cube8_patches, grain=grain)
        p, _, _ = s.sweep_once(mode="engine")
        ref, _, _ = s.sweep_once(mode="fast")
        np.testing.assert_array_equal(p, ref)

    def test_decomposition_does_not_change_numerics(self, cube8):
        mm_kw = dict(scatter=0.3, sn=2)
        s1 = make_solver(PatchSet.single_patch(cube8), **mm_kw)
        s2 = make_solver(
            PatchSet.from_structured(cube8, (2, 4, 8), nprocs=2), **mm_kw
        )
        s3 = make_solver(
            PatchSet.from_structured(cube8, (3, 3, 3), nprocs=4), **mm_kw
        )
        ref, _, _ = s1.sweep_once(mode="fast")
        for s in (s2, s3):
            got, _, _ = s.sweep_once(mode="engine")
            np.testing.assert_array_equal(got, ref)

    def test_source_iteration_engine_equals_fast(self, cube8_patches):
        s = make_solver(cube8_patches)
        rf = s.source_iteration(tol=1e-8, mode="fast")
        re_ = s.source_iteration(tol=1e-8, mode="engine")
        assert rf.iterations == re_.iterations
        np.testing.assert_array_equal(rf.phi, re_.phi)
        assert len(re_.engine_stats) == re_.iterations


class TestSolverValidation:
    def test_source_shape_checked(self, cube8_patches):
        mm = MaterialMap.uniform(
            Material.isotropic(1.0), cube8_patches.mesh.num_cells
        )
        with pytest.raises(ReproError):
            SnSolver(cube8_patches, level_symmetric(2), mm, np.ones(3))

    def test_1d_source_promoted(self, cube8_patches):
        mm = MaterialMap.uniform(
            Material.isotropic(1.0), cube8_patches.mesh.num_cells
        )
        s = SnSolver(
            cube8_patches,
            level_symmetric(2),
            mm,
            np.ones(cube8_patches.mesh.num_cells),
        )
        assert s.source.shape == (cube8_patches.mesh.num_cells, 1)

    def test_default_scheme_by_mesh(self, cube8_patches, disk_patches):
        s1 = make_solver(cube8_patches)
        assert s1.scheme == "dd"
        s2 = make_solver(disk_patches)
        assert s2.scheme == "step"

    def test_unknown_mode(self, cube_solver):
        with pytest.raises(ReproError):
            cube_solver.sweep_once(mode="warp")

    # A non-positive grain is refused where it enters, as a ReproError
    # naming the argument and its value - not as the bare ValueError of
    # SweepPatchProgram.__init__ after the topology has been built.

    def test_grain_refused_by_constructor(self, cube8_patches):
        with pytest.raises(ReproError, match=r"grain=0\b"):
            make_solver(cube8_patches, grain=0)

    def test_grain_refused_by_build_programs(self, cube_solver):
        with pytest.raises(ReproError, match=r"grain=-3\b"):
            cube_solver.build_programs(compute=False, grain=-3)
        assert cube_solver._topology is None  # refused before any work

    def test_grain_refused_by_record_coarsened(self, cube_solver):
        with pytest.raises(ReproError, match=r"grain=0\b"):
            cube_solver.record_coarsened(grain=0)

    @pytest.mark.parametrize("coarsened", [False, True])
    def test_grain_refused_by_sweep_report(self, coarsened):
        from repro.apps import JSNTS

        app = JSNTS.kobayashi(6, total_cores=12, patch_shape=(3, 3, 3))
        with pytest.raises(ReproError, match=r"grain=0\b"):
            app.sweep_report(12, grain=0, coarsened=coarsened)

    def test_strategy_object_accepted(self, cube8_patches):
        s = make_solver(cube8_patches, strategy=PriorityStrategy("bfs", "slbd"))
        assert s.strategy.patch == "bfs"


class TestConvergence:
    def test_iterations_grow_with_scattering_ratio(self, cube8_patches):
        iters = []
        for c in (0.0, 0.5, 0.9):
            s = make_solver(cube8_patches, scatter=c)
            r = s.source_iteration(tol=1e-8, max_iterations=600)
            assert r.converged
            iters.append(r.iterations)
        assert iters[0] < iters[1] < iters[2]

    def test_residuals_monotone_tail(self, cube8_patches):
        s = make_solver(cube8_patches, scatter=0.8)
        r = s.source_iteration(tol=1e-9, max_iterations=500)
        tail = r.residuals[3:]
        assert all(b <= a * 1.01 for a, b in zip(tail, tail[1:]))

    def test_spectral_radius_matches_scatter_ratio(self, cube8_patches):
        """Source iteration converges like c = sigma_s/sigma_t per
        iteration in the thick limit; ratios must be below 1 and near c."""
        s = make_solver(cube8_patches, scatter=0.7)
        r = s.source_iteration(tol=1e-11, max_iterations=800)
        ratios = [
            b / a for a, b in zip(r.residuals[5:-1], r.residuals[6:]) if a > 0
        ]
        est = np.median(ratios)
        assert est < 0.75  # leakage makes it < c = 0.7

    def test_non_convergence_flagged(self, cube8_patches):
        s = make_solver(cube8_patches, scatter=0.99)
        r = s.source_iteration(tol=1e-14, max_iterations=3)
        assert not r.converged
        assert r.iterations == 3

    def test_zero_source_zero_flux(self, cube8_patches):
        mm = MaterialMap.uniform(
            Material.isotropic(1.0, 0.5), cube8_patches.mesh.num_cells
        )
        s = SnSolver(
            cube8_patches,
            level_symmetric(2),
            mm,
            np.zeros(cube8_patches.mesh.num_cells),
        )
        r = s.source_iteration(tol=1e-12)
        assert r.iterations == 1
        np.testing.assert_array_equal(r.phi, 0.0)

    def test_linearity_in_source(self, cube8_patches):
        s1 = make_solver(cube8_patches, scatter=0.4)
        mm = MaterialMap.uniform(
            Material.isotropic(1.0, 0.4), cube8_patches.mesh.num_cells
        )
        s2 = SnSolver(
            cube8_patches,
            level_symmetric(2),
            mm,
            3.0 * np.ones((cube8_patches.mesh.num_cells, 1)),
            fixup=False,
        )
        s1.fixup = False
        s1._kernels.clear()
        r1 = s1.source_iteration(tol=1e-12, max_iterations=400)
        r2 = s2.source_iteration(tol=1e-12, max_iterations=400)
        np.testing.assert_allclose(r2.phi, 3.0 * r1.phi, rtol=1e-6)


class TestWarpedMesh:
    """Deforming-structured meshes: the case KBA cannot handle."""

    def test_sweep_and_balance(self, warped):
        pset = PatchSet.from_unstructured(warped, 25, nprocs=2)
        s = make_solver(pset, scatter=0.3, sn=2)
        r = s.source_iteration(tol=1e-10, max_iterations=200)
        assert r.converged
        assert s.balance_residual(r) < 1e-8

    def test_engine_equivalence_on_warped(self, warped):
        pset = PatchSet.from_unstructured(warped, 25, nprocs=2)
        s = make_solver(pset, scatter=0.0, sn=2)
        pf, _, _ = s.sweep_once(mode="fast")
        pe, _, _ = s.sweep_once(mode="engine")
        np.testing.assert_array_equal(pf, pe)


@pytest.mark.parametrize("mesh_fixture, patch", [
    ("cube8", None), ("ball", 60), ("warped", 25),
])
def test_topo_order_puts_every_upwind_cell_first(mesh_fixture, patch, request):
    """The scalar oracle's order checked without a peel: for every
    directed edge ``u -> v``, ``u`` precedes ``v``."""
    from repro.sweep.dag import directed_edges

    mesh = request.getfixturevalue(mesh_fixture)
    pset = (PatchSet.from_structured(mesh, (4, 4, 4), nprocs=2) if patch is None
            else PatchSet.from_unstructured(mesh, patch, nprocs=2))
    s = make_solver(pset, sn=2)
    for a, direction in enumerate(s.quadrature.directions):
        order = s.topo_order(a)
        assert sorted(order.tolist()) == list(range(mesh.num_cells))
        position = np.empty(mesh.num_cells, dtype=np.int64)
        position[order] = np.arange(mesh.num_cells)
        u, v = directed_edges(s.interfaces, direction)
        assert len(u) and np.all(position[u] < position[v])
