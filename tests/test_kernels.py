"""Tests for the transport kernels: discrete recurrences and physics."""

import numpy as np
import pytest

from repro import DataDrivenRuntime
from repro._util import ReproError
from repro.framework import PatchSet, build_boundary, build_interfaces
from repro.mesh import box_structured, cube_structured
from repro.runtime import Machine
from repro.sweep import (
    AngleKernel,
    Material,
    MaterialMap,
    Quadrature,
    SnSolver,
    level_symmetric,
)


def _beam_quadrature(direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return Quadrature(d[None, :], np.array([4 * np.pi]), name="beam")


def _slab_solver(n, sigma, scheme, fixup=False, direction=(1, 0, 0)):
    mesh = box_structured((n, 2, 2), (float(n), 2.0, 2.0))  # dx = 1
    ps = PatchSet.single_patch(mesh)
    mm = MaterialMap.uniform(Material.isotropic(sigma, 0.0), mesh.num_cells)

    def bc(cent, d):
        return np.where(np.abs(cent[:, 0]) < 1e-12, 1.0, 0.0)

    return mesh, SnSolver(
        ps,
        _beam_quadrature(direction),
        mm,
        np.zeros((mesh.num_cells, 1)),
        scheme=scheme,
        fixup=fixup,
        boundary_flux=bc,
    )


class TestDiscreteRecurrences:
    """The kernels must match their textbook per-cell recurrences exactly."""

    def test_step_slab_recurrence(self):
        sigma, n = 0.7, 12
        mesh, s = _slab_solver(n, sigma, "step")
        phi, _, _ = s.sweep_once(mode="fast")
        # Step: psi_out = psi_in / (1 + sigma dx); psi_cell = psi_out.
        expected_face = 1.0
        for i in range(n):
            expected_cell = expected_face / (1 + sigma)
            got = phi[mesh.linear_index((i, 0, 0)), 0] / (4 * np.pi)
            assert got == pytest.approx(expected_cell, rel=1e-12)
            expected_face = expected_cell

    def test_dd_slab_recurrence(self):
        sigma, n = 0.4, 10
        mesh, s = _slab_solver(n, sigma, "dd", fixup=False)
        phi, _, _ = s.sweep_once(mode="fast")
        # DD: psi_c = psi_in / (1 + sigma dx / 2); psi_out = 2 psi_c - psi_in.
        face = 1.0
        for i in range(n):
            cell = face / (1 + sigma / 2)
            got = phi[mesh.linear_index((i, 1, 1)), 0] / (4 * np.pi)
            assert got == pytest.approx(cell, rel=1e-12)
            face = 2 * cell - face

    @pytest.mark.parametrize("mode", ["fast", "fast-level", "des"])
    @pytest.mark.parametrize("scheme", ["step", "dd"])
    def test_pure_absorber_ray_matches_the_closed_forms(self, scheme, mode):
        """An oracle that is not our own fingerprint: one ordinate along
        +x through a pure absorber with unit incident flux.  Every face
        ``i`` cells downstream carries ``r**i`` with ``r = 1 / (1 + tau)``
        (step) or ``(2 - tau) / (2 + tau)`` (DD; ``tau = sigma_t * dx <
        2`` keeps the fixup idle), the cell fluxes and the leakage the
        matching closed forms - in every sweep path."""
        n, length, sigma = 8, 4.0, 1.3
        mesh = cube_structured(n, length=length)
        pset = PatchSet.from_structured(mesh, (4, 4, 4), nprocs=2)
        mm = MaterialMap.uniform(Material.isotropic(sigma, 0.0), mesh.num_cells)
        weight = 4 * np.pi
        s = SnSolver(
            pset, Quadrature([[1.0, 0.0, 0.0]], [weight]), mm,
            np.zeros((mesh.num_cells, 1)), scheme=scheme, boundary_flux=1.0,
            grain=8,
        )
        dx = length / n
        tau = sigma * dx
        assert tau < 2
        r = 1 / (1 + tau) if scheme == "step" else (2 - tau) / (2 + tau)
        to_cell = 1 / (1 + tau) if scheme == "step" else 2 / (2 + tau)

        k = s.kernel(0)
        if mode == "des":
            programs, record = s.build_programs(compute=True)
            DataDrivenRuntime(8, machine=Machine(cores_per_proc=4)).run(
                programs, pset.patch_proc
            )
            phi, leakage = s.accumulate(record)
        else:
            phi, leakage, _ = s.sweep_once(mode=mode)
        # The face and cell fluxes of the sweep behind ``phi``: a DES
        # run's flux is the plan's sweep of its (checked) order record.
        psi_faces, psi_cell = k.new_face_array(1), np.zeros((mesh.num_cells, 1))
        s._apply_bc(k, psi_faces, 0)
        src_v = s._angle_source_v(np.zeros((mesh.num_cells, 1)))
        if mode == "fast":
            k.solve_cells(s.topo_order(0), src_v, k.removal(s.sigma_t_v),
                          psi_faces, psi_cell)
        else:
            s.sweep_plan().sweep(src_v, s.sigma_t_v, psi_faces[None],
                                 psi_cell[None])

        ix = np.rint(mesh.cell_centers()[:, 0] / dx - 0.5).astype(int)
        rtol = 1e-12
        assert np.allclose(psi_cell[:, 0], to_cell * r ** ix, rtol=rtol, atol=0)
        assert np.allclose(phi, weight * psi_cell, rtol=rtol, atol=0)
        # Faces: x-normal interfaces carry their upwind cell's outflow,
        # the others are parallel to the ray and stay untouched.
        it, bd = s.interfaces, s.boundary
        along = np.abs(it.normal[:, 0]) > 0.5
        upwind = np.where(it.normal[:, 0] > 0, it.cell_a, it.cell_b)
        want = np.where(along, r ** (ix[upwind] + 1), 0.0)
        assert np.allclose(psi_faces[: it.num_interfaces, 0], want,
                           rtol=rtol, atol=0)
        want = np.select(
            [bd.normal[:, 0] < -0.5, bd.normal[:, 0] > 0.5], [1.0, r ** n], 0.0
        )
        assert np.allclose(psi_faces[it.num_interfaces :, 0], want,
                           rtol=rtol, atol=0)
        assert leakage[0] == pytest.approx(weight * length**2 * r ** n, rel=rtol)

    def test_dd_converges_to_exponential(self):
        """DD is 2nd order: halving h reduces the attenuation error ~4x."""
        sigma, L = 1.0, 4.0
        errs = []
        for n in (8, 16, 32):
            mesh = box_structured((n, 2, 2), (L, 1.0, 1.0))
            ps = PatchSet.single_patch(mesh)
            mm = MaterialMap.uniform(
                Material.isotropic(sigma, 0.0), mesh.num_cells
            )
            s = SnSolver(
                ps,
                _beam_quadrature((1, 0, 0)),
                mm,
                np.zeros((mesh.num_cells, 1)),
                scheme="dd",
                fixup=False,
                boundary_flux=lambda c, d: np.where(
                    np.abs(c[:, 0]) < 1e-12, 1.0, 0.0
                ),
            )
            phi, _, _ = s.sweep_once(mode="fast")
            x_last = L * (1 - 0.5 / n)
            got = phi[mesh.linear_index((n - 1, 0, 0)), 0] / (4 * np.pi)
            errs.append(abs(got - np.exp(-sigma * x_last)))
        assert errs[1] < errs[0] / 3
        assert errs[2] < errs[1] / 3

    def test_oblique_beam_attenuation(self):
        """Beam at 45 degrees: path length is x / mu."""
        sigma, n = 0.5, 16
        d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        mesh = box_structured((n, n, 2), (4.0, 4.0, 1.0))
        ps = PatchSet.single_patch(mesh)
        mm = MaterialMap.uniform(Material.isotropic(sigma, 0.0), mesh.num_cells)
        s = SnSolver(
            ps,
            _beam_quadrature(d),
            mm,
            np.zeros((mesh.num_cells, 1)),
            scheme="dd",
            fixup=False,
            boundary_flux=1.0,  # incident on all inflow faces
        )
        phi, _, _ = s.sweep_once(mode="fast")
        # Along the diagonal the path length from the inflow corner is
        # sqrt(2) * x; attenuation exp(-sigma * sqrt(2) * x).
        i = n // 2
        x = 4.0 * (i + 0.5) / n
        got = phi[mesh.linear_index((i, i, 0)), 0] / (4 * np.pi)
        expect = np.exp(-sigma * np.sqrt(2) * x)
        assert got == pytest.approx(expect, rel=0.08)


class TestKernelStructure:
    def test_dd_requires_structured(self, disk):
        it = build_interfaces(disk)
        bt = build_boundary(disk)
        with pytest.raises(ReproError):
            AngleKernel(disk, it, bt, np.array([1.0, 0, 0]), scheme="dd")

    def test_unknown_scheme(self, cube8):
        it = build_interfaces(cube8)
        bt = build_boundary(cube8)
        with pytest.raises(ReproError):
            AngleKernel(cube8, it, bt, np.array([1.0, 0, 0]), scheme="magic")

    def test_every_cell_has_inflow_and_outflow(self, cube8):
        it = build_interfaces(cube8)
        bt = build_boundary(cube8)
        d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        k = AngleKernel(cube8, it, bt, d, scheme="dd")
        assert np.all(np.diff(k.in_indptr) == 3)  # 3 axes active
        assert np.all(np.diff(k.out_indptr) == 3)
        assert k.out_pair is not None
        assert np.all(k.out_pair >= 0)

    def test_pairing_rejects_two_inflow_faces_on_one_axis(self, cube8):
        it = build_interfaces(cube8)
        bt = build_boundary(cube8)
        d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        k = AngleKernel(cube8, it, bt, d, scheme="dd")
        cell = np.repeat(np.arange(cube8.num_cells), 3)
        axes = np.tile(np.arange(3), cube8.num_cells)
        squashed = np.minimum(axes, 1)  # axes 1 and 2 collide
        with pytest.raises(ReproError, match="two inflow faces on one axis"):
            k._pair_faces(cell * 3 + squashed, cell * 3 + axes)

    def test_pairing_rejects_an_outflow_face_without_inflow(self, cube8):
        it = build_interfaces(cube8)
        bt = build_boundary(cube8)
        k = AngleKernel(cube8, it, bt, np.array([1.0, 0.0, 0.0]), scheme="dd")
        cell = np.arange(cube8.num_cells)  # one face in, one out: the x axis
        assert np.array_equal(k._pair_faces(cell * 3, cell * 3), k.out_pair)
        with pytest.raises(ReproError, match="outflow face without paired inflow"):
            k._pair_faces(cell * 3, cell * 3 + 1)

    def test_kernel_keeps_no_construction_only_axis_tables(self, cube8):
        it = build_interfaces(cube8)
        bt = build_boundary(cube8)
        k = AngleKernel(cube8, it, bt, np.array([1.0, 0.0, 0.0]), scheme="dd")
        assert not hasattr(k, "in_axis") and not hasattr(k, "out_axis")

    def test_axis_direction_single_face(self, cube8):
        it = build_interfaces(cube8)
        bt = build_boundary(cube8)
        k = AngleKernel(cube8, it, bt, np.array([1.0, 0.0, 0.0]), scheme="dd")
        assert np.all(np.diff(k.in_indptr) == 1)

    def test_leakage_nonnegative(self, cube8):
        it = build_interfaces(cube8)
        bt = build_boundary(cube8)
        d = np.array([1.0, 2.0, 3.0])
        d = d / np.linalg.norm(d)
        k = AngleKernel(cube8, it, bt, d, scheme="step")
        pf = k.new_face_array(1)
        k.apply_boundary(pf, 0.0)
        # a full sweep needs topological order: use the solver
        from repro.framework import PatchSet
        from repro.sweep import SnSolver, MaterialMap, Material, Quadrature
        ps = PatchSet.single_patch(cube8)
        s = SnSolver(ps, _beam_quadrature(d), MaterialMap.uniform(
            Material.isotropic(1.0, 0.0), cube8.num_cells),
            np.ones((cube8.num_cells, 1)), scheme="step")
        phi, leak, _ = s.sweep_once(mode="fast")
        assert leak[0] > 0


class TestBalance:
    """Particle conservation: production = absorption + leakage."""

    @pytest.mark.parametrize("scheme,mesh_kind", [
        ("step", "structured"), ("dd", "structured"), ("step", "disk"),
    ])
    def test_balance_pure_absorber(self, scheme, mesh_kind, disk):
        if mesh_kind == "structured":
            mesh = cube_structured(6, length=3.0)
            ps = PatchSet.single_patch(mesh)
        else:
            mesh = disk
            ps = PatchSet.single_patch(mesh)
        if scheme == "dd" and mesh_kind != "structured":
            pytest.skip("dd needs structured")
        mm = MaterialMap.uniform(Material.isotropic(1.0, 0.0), mesh.num_cells)
        s = SnSolver(
            ps, level_symmetric(4), mm, np.ones((mesh.num_cells, 1)),
            scheme=scheme, fixup=False,
        )
        res = s.source_iteration(tol=1e-12, max_iterations=3)
        assert s.balance_residual(res) < 1e-10

    def test_balance_with_scattering(self, cube8):
        ps = PatchSet.single_patch(cube8)
        mm = MaterialMap.uniform(Material.isotropic(1.0, 0.6), cube8.num_cells)
        s = SnSolver(
            ps, level_symmetric(2), mm, np.ones((cube8.num_cells, 1)),
            scheme="dd", fixup=False,
        )
        res = s.source_iteration(tol=1e-10, max_iterations=300)
        assert res.converged
        assert s.balance_residual(res) < 1e-6

    def test_fixup_keeps_flux_nonnegative(self):
        """Coarse DD on a sharp void/absorber interface goes negative
        without the fixup and stays nonnegative with it."""
        mesh = box_structured((20, 4, 4), (20.0, 4.0, 4.0))
        ids = (mesh.cell_centers()[:, 0] > 3.0).astype(np.int64)
        mesh.materials = ids.reshape(mesh.shape)
        mats = {
            0: Material.isotropic(5.0, 0.0, name="hot"),
            1: Material.isotropic(0.01, 0.0, name="thin"),
        }
        q = np.zeros((mesh.num_cells, 1))
        q[ids == 0] = 10.0
        ps = PatchSet.single_patch(mesh)
        s_fix = SnSolver(
            ps, level_symmetric(4), MaterialMap(mats, ids), q,
            scheme="dd", fixup=True,
        )
        res = s_fix.source_iteration(tol=1e-10, max_iterations=3)
        assert res.phi.min() >= 0

    def test_infinite_medium_limit(self):
        """Large scattering domain: center flux approaches q / sigma_a."""
        mesh = cube_structured(10, length=50.0)
        ps = PatchSet.single_patch(mesh)
        mm = MaterialMap.uniform(Material.isotropic(1.0, 0.9), mesh.num_cells)
        s = SnSolver(
            ps, level_symmetric(2), mm, np.ones((mesh.num_cells, 1)),
            scheme="dd",
        )
        res = s.source_iteration(tol=1e-9, max_iterations=500)
        center = res.phi[mesh.linear_index((5, 5, 5)), 0]
        assert center == pytest.approx(1.0 / 0.1, rel=0.05)


class TestMultigroup:
    def test_group_decoupled_equals_two_single_group(self, cube8):
        ps = PatchSet.single_patch(cube8)
        st1 = Material(np.array([1.0]), np.array([[0.5]]))
        st2 = Material(np.array([2.0]), np.array([[0.4]]))
        both = Material(
            np.array([1.0, 2.0]), np.diag([0.5, 0.4])
        )
        q = np.ones((cube8.num_cells, 1))
        r1 = SnSolver(
            ps, level_symmetric(2),
            MaterialMap.uniform(st1, cube8.num_cells), q,
        ).source_iteration(tol=1e-10)
        r2 = SnSolver(
            ps, level_symmetric(2),
            MaterialMap.uniform(st2, cube8.num_cells), q,
        ).source_iteration(tol=1e-10)
        r12 = SnSolver(
            ps, level_symmetric(2),
            MaterialMap.uniform(both, cube8.num_cells),
            np.ones((cube8.num_cells, 2)),
        ).source_iteration(tol=1e-10)
        np.testing.assert_allclose(r12.phi[:, 0], r1.phi[:, 0], rtol=1e-6)
        np.testing.assert_allclose(r12.phi[:, 1], r2.phi[:, 0], rtol=1e-6)

    def test_downscatter_feeds_group_two(self, cube8):
        ps = PatchSet.single_patch(cube8)
        # Source only in group 0; group 1 fed purely by downscatter.
        mat = Material(
            np.array([1.0, 1.0]),
            np.array([[0.2, 0.3], [0.0, 0.2]]),
        )
        q = np.zeros((cube8.num_cells, 2))
        q[:, 0] = 1.0
        s = SnSolver(
            ps, level_symmetric(2), MaterialMap.uniform(mat, cube8.num_cells), q
        )
        res = s.source_iteration(tol=1e-9, max_iterations=400)
        assert res.converged
        assert np.all(res.phi[:, 1] > 0)
        assert res.phi[:, 1].max() < res.phi[:, 0].max()
