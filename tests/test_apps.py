"""Tests for the application layer: Kobayashi, JSNT-S/U, particle trace."""

import numpy as np
import pytest

from repro._util import ReproError
from repro.apps import (
    JSNTS,
    JSNTU,
    kobayashi_materials,
    kobayashi_mesh,
    kobayashi_region,
    kobayashi_source,
    make_kobayashi_solver,
    trace_particles,
)
from repro.apps.kobayashi import MAT_SHIELD, MAT_SOURCE, MAT_VOID
from repro.framework import PatchSet
from repro.mesh import disk_tri_mesh
from repro.persist import report_fingerprint
from repro.runtime import DataDrivenRuntime, Machine


class TestKobayashiGeometry:
    def test_source_region(self):
        pts = np.array([[5.0, 5.0, 5.0], [15.0, 5.0, 5.0], [55.0, 55.0, 55.0]])
        for prob in (1, 2, 3):
            r = kobayashi_region(pts, prob)
            assert r[0] == MAT_SOURCE
            assert r[2] == MAT_SHIELD

    def test_problem2_straight_duct(self):
        pts = np.array([[5.0, 50.0, 5.0], [15.0, 50.0, 5.0]])
        r = kobayashi_region(pts, 2)
        assert r[0] == MAT_VOID
        assert r[1] == MAT_SHIELD

    def test_problem3_dogleg(self):
        # In the first leg, in the jog, in the second leg, outside.
        pts = np.array(
            [
                [5.0, 20.0, 5.0],
                [5.0, 25.0, 25.0],
                [5.0, 50.0, 35.0],
                [5.0, 50.0, 5.0],
            ]
        )
        r = kobayashi_region(pts, 3)
        assert r[0] == MAT_VOID
        assert r[1] == MAT_VOID
        assert r[2] == MAT_VOID
        assert r[3] == MAT_SHIELD

    def test_problem1_void_shell(self):
        pts = np.array([[30.0, 30.0, 30.0], [55.0, 30.0, 30.0]])
        r = kobayashi_region(pts, 1)
        assert r[0] == MAT_VOID
        assert r[1] == MAT_SHIELD

    def test_unknown_problem(self):
        with pytest.raises(ReproError):
            kobayashi_region(np.zeros((1, 3)), 4)

    def test_mesh_has_all_regions(self):
        m = kobayashi_mesh(12, problem=3)
        assert set(np.unique(m.materials)) == {MAT_SOURCE, MAT_VOID, MAT_SHIELD}

    def test_source_in_source_region_only(self):
        m = kobayashi_mesh(12)
        q = kobayashi_source(m)
        ids = m.material_flat()
        assert np.all(q[ids == MAT_SOURCE, 0] == 1.0)
        assert np.all(q[ids != MAT_SOURCE, 0] == 0.0)

    def test_materials_scattering_toggle(self):
        on = kobayashi_materials(True)
        off = kobayashi_materials(False)
        assert on[MAT_SHIELD].sigma_s.sum() > 0
        assert off[MAT_SHIELD].sigma_s.sum() == 0

    def test_min_resolution(self):
        with pytest.raises(ReproError):
            kobayashi_mesh(4)

    @pytest.mark.parametrize("n", [8.5, 12.0, True])
    def test_cells_per_axis_must_be_an_integer(self, n):
        """A fractional ``n`` would build ``int(n)`` cells of spacing
        ``60 / n``, covering less than the domain."""
        with pytest.raises(ReproError, match=r"cells per axis.*n="):
            kobayashi_mesh(n)
        with pytest.raises(ReproError, match=r"cells per axis.*n="):
            JSNTS.kobayashi(n, patch_shape=(4, 4, 4))


class TestKobayashiSolve:
    def test_flux_decays_into_shield(self):
        s = make_kobayashi_solver(12, patch_shape=(6, 6, 6), scattering=False)
        res = s.source_iteration(tol=1e-6, max_iterations=50)
        assert res.converged
        mesh = s.mesh
        n = 12
        src = res.phi[mesh.linear_index((0, 0, 0)), 0]
        far = res.phi[mesh.linear_index((n - 1, n - 1, n - 1)), 0]
        assert src > 100 * far > 0

    def test_duct_streams_farther_than_shield(self):
        """The void duct carries flux much deeper than the shield does
        - the defining feature of the Kobayashi problems.  Needs an
        angle set dense enough to resolve the duct solid angle (the
        paper's 320-direction set); coarse S4 suffers ray effects."""
        from repro.sweep import product_quadrature

        s = make_kobayashi_solver(
            12, patch_shape=(6, 6, 6), problem=2, scattering=False,
            quadrature=product_quadrature(6, 24),
        )
        res = s.source_iteration(tol=1e-6, max_iterations=3)
        mesh = s.mesh
        n = 12
        j = n - 1  # far end in y
        in_duct = res.phi[mesh.linear_index((0, j, 0)), 0]
        in_shield = res.phi[mesh.linear_index((n // 2, j, 0)), 0]
        assert in_duct > 10 * in_shield

    def test_scattering_increases_flux(self):
        r0 = make_kobayashi_solver(
            10, patch_shape=(5, 5, 5), scattering=False
        ).source_iteration(tol=1e-6, max_iterations=80)
        r1 = make_kobayashi_solver(
            10, patch_shape=(5, 5, 5), scattering=True
        ).source_iteration(tol=1e-6, max_iterations=80)
        assert r1.phi.sum() > r0.phi.sum()


class TestJSNTApps:
    def test_jsnts_sweep_report(self):
        machine = Machine(cores_per_proc=4)
        app = JSNTS.kobayashi(
            12, total_cores=8, machine=machine, patch_shape=(4, 4, 4)
        )
        rep = app.sweep_report(8)
        assert rep.makespan > 0
        assert rep.vertices_solved == 12**3 * 24  # S4 default

    def test_jsnts_coarsened_fewer_executions(self):
        machine = Machine(cores_per_proc=4)
        app = JSNTS.kobayashi(
            12, total_cores=8, machine=machine, patch_shape=(4, 4, 4),
            grain=20,
        )
        dag = app.sweep_report(8)
        cg = app.sweep_report(8, coarsened=True)
        assert cg.executions < dag.executions

    def test_jsntu_reactor(self):
        machine = Machine(cores_per_proc=4)
        app = JSNTU.reactor(
            12, total_cores=8, machine=machine, patch_size=100, groups=2
        )
        rep = app.sweep_report(8)
        assert rep.vertices_solved > 0

    def test_jsntu_ball_solves(self):
        machine = Machine(cores_per_proc=4)
        app = JSNTU.ball(
            4, total_cores=4, machine=machine, patch_size=120, groups=1,
        )
        res = app.solve(tol=1e-4, max_iterations=60)
        assert res.converged
        assert np.all(res.phi >= 0)

    @pytest.mark.parametrize("build", ["ball", "reactor"])
    @pytest.mark.parametrize("groups", [0, -1, 2.5, True])
    def test_jsntu_refuses_a_bad_group_count(self, build, groups):
        """A bad ``groups`` is named where it enters, not an
        ``IndexError`` / numpy error from the source array."""
        with pytest.raises(ReproError, match=r"energy group count.*groups="):
            getattr(JSNTU, build)(
                4, total_cores=4, machine=Machine(cores_per_proc=4),
                patch_size=60, groups=groups,
            )

    @pytest.mark.parametrize("build, resolution", [
        ("ball", 2.5), ("ball", 4.0), ("ball", True),
        ("reactor", 4.5), ("reactor", 6.0), ("reactor", False),
    ])
    def test_jsntu_refuses_a_bad_resolution(self, build, resolution):
        with pytest.raises(ReproError, match=r"mesh resolution.*resolution="):
            getattr(JSNTU, build)(resolution, total_cores=4,
                                  machine=Machine(cores_per_proc=4))

    def test_jsntu_mpi_only_mode(self):
        machine = Machine(cores_per_proc=4)
        app = JSNTU.reactor(
            12, total_cores=8, machine=machine, patch_size=60, groups=1,
        )
        rep = app.sweep_report(8, mode="mpi_only")
        assert rep.total_cores == 8


M4 = Machine(cores_per_proc=4)

#: One mesh per family, 16 patches each, whatever the core count.
APPS = {
    "koba": lambda cores: JSNTS.kobayashi(
        8, total_cores=cores, machine=M4, patch_shape=(2, 4, 4)),
    "ball": lambda cores: JSNTU.ball(
        5, total_cores=cores, machine=M4, patch_size=30, groups=1),
    "reactor": lambda cores: JSNTU.reactor(
        12, total_cores=cores, machine=M4, patch_size=60, groups=1),
}


@pytest.mark.parametrize("mode, cores", [
    ("hybrid", 16), ("hybrid", 64), ("mpi_only", 4), ("mpi_only", 16),
])
@pytest.mark.parametrize("build", sorted(APPS))
def test_one_app_sweeps_every_core_count(build, mode, cores):
    """An app built at 8 cores and swept at N reports exactly what a
    fresh app built for N's process count reports on its own stored
    patch -> process map."""
    app = APPS[build](8)
    assert app.pset.num_patches == 16
    rep = app.sweep_report(cores, mode=mode)
    nprocs = M4.layout(cores, mode).nprocs
    fresh = APPS[build](nprocs * M4.cores_per_proc)
    np.testing.assert_array_equal(fresh.pset.patch_proc, app.pset.assign(nprocs))
    programs, _ = fresh.solver.build_programs(compute=False)
    ref = DataDrivenRuntime(cores, machine=M4, mode=mode).run(
        programs, fresh.pset.patch_proc)
    assert rep.makespan.hex() == ref.makespan.hex()
    assert report_fingerprint(rep) == report_fingerprint(ref)


@pytest.mark.parametrize("mode, cores", [("hybrid", 68), ("mpi_only", 17)])
@pytest.mark.parametrize("build", sorted(APPS))
def test_more_procs_than_patches_is_refused(build, mode, cores):
    app = APPS[build](8)
    with pytest.raises(ReproError, match="17 procs but only 16 patches"):
        app.sweep_report(cores, mode=mode)


class TestParticleTrace:
    def test_paths_match_circle_chords(self):
        mesh = disk_tri_mesh(10)
        ps = PatchSet.from_unstructured(mesh, 50, nprocs=2)
        rng = np.random.default_rng(0)
        n = 100
        pos = rng.uniform(-0.3, 0.3, size=(n, 2))
        th = rng.uniform(0, 2 * np.pi, n)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        parts = trace_particles(ps, pos, dirs)
        assert len(parts) == n
        errs = []
        for p, p0, d in zip(parts, pos, dirs):
            b = p0 @ d
            t = -b + np.sqrt(b * b - (p0 @ p0 - 1))
            errs.append(abs(p.path_length - t))
        assert np.median(errs) < 0.01
        assert np.mean(errs) < 0.05

    def test_all_particles_exit(self):
        mesh = disk_tri_mesh(6)
        ps = PatchSet.from_unstructured(mesh, 30, nprocs=3)
        pos = np.zeros((16, 2))
        th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        parts = trace_particles(ps, pos, dirs)
        assert all(not p.alive for p in parts)
        assert sorted(p.id for p in parts) == list(range(16))

    def test_crossings_counted(self):
        mesh = disk_tri_mesh(6)
        ps = PatchSet.from_unstructured(mesh, 1000, nprocs=1)
        parts = trace_particles(
            ps, np.zeros((1, 2)), np.array([[1.0, 0.0]])
        )
        assert parts[0].crossings >= 6  # must cross several cells

    def test_zero_direction_rejected(self):
        mesh = disk_tri_mesh(6)
        ps = PatchSet.from_unstructured(mesh, 50, nprocs=1)
        with pytest.raises(ReproError):
            trace_particles(ps, np.zeros((1, 2)), np.zeros((1, 2)))

    def test_runs_on_des_runtime(self):
        """The trace component is runtime-agnostic (same PatchProgram
        contract), including the consensus-termination path."""
        from repro.apps.particle_trace import Particle, ParticleTraceProgram

        mesh = disk_tri_mesh(8)
        machine = Machine(cores_per_proc=4)
        ps = PatchSet.from_unstructured(mesh, 40, nprocs=2)
        rng = np.random.default_rng(3)
        pos = rng.uniform(-0.2, 0.2, size=(30, 2))
        th = rng.uniform(0, 2 * np.pi, 30)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)

        from scipy.spatial import cKDTree

        tree = cKDTree(mesh.cell_centroids)
        _, cells = tree.query(pos)
        seeds = {}
        for i, (x, d, c) in enumerate(zip(pos, dirs, cells)):
            patch = int(ps.cell_patch[int(c)])
            seeds.setdefault(patch, []).append(
                Particle(i, x.copy(), d.copy(), int(c))
            )
        progs = [
            ParticleTraceProgram(ps, p.id, seeds.get(p.id, []))
            for p in ps.patches
        ]
        rep = DataDrivenRuntime(
            8, machine=machine, termination="consensus"
        ).run(progs, ps.patch_proc)
        done = sum(len(p.finished) for p in progs)
        assert done == 30
        assert rep.termination_hops > 0
