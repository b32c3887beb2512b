"""Tests for the analytic sweep performance model."""

import numpy as np
import pytest

from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.runtime import (
    DataDrivenRuntime,
    Machine,
    SweepPerformanceModel,
)
from repro.sweep import Material, MaterialMap, SnSolver, level_symmetric

MACHINE = Machine(cores_per_proc=4)


def _solver(nprocs, n=12, patch=4):
    mesh = cube_structured(n, float(n))
    pset = PatchSet.from_structured(mesh, (patch,) * 3, nprocs=nprocs)
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.5), mesh.num_cells)
    return pset, SnSolver(
        pset, level_symmetric(2), mm, np.ones((mesh.num_cells, 1))
    )


class TestModelStructure:
    def test_prediction_fields(self):
        _, s = _solver(2)
        model = SweepPerformanceModel(s.topology, machine=MACHINE)
        pred = model.predict(8)
        assert pred.time == max(pred.work_term, pred.pipeline_term)
        assert pred.total_vertices == s.topology.num_vertices
        assert pred.critical_path_patches >= 3  # at least the diagonal

    def test_work_term_scales_inversely(self):
        _, s = _solver(2)
        model = SweepPerformanceModel(s.topology, machine=MACHINE)
        p1 = model.predict(8)
        p2 = model.predict(16)
        assert p2.work_term == pytest.approx(p1.work_term / 2, rel=1e-9)

    def test_pipeline_term_core_independent(self):
        _, s = _solver(2)
        model = SweepPerformanceModel(s.topology, machine=MACHINE)
        assert model.predict(8).pipeline_term == pytest.approx(
            model.predict(64).pipeline_term
        )

    def test_unstructured_supported(self, disk_patches):
        from tests.conftest import make_solver

        s = make_solver(disk_patches, sn=2)
        model = SweepPerformanceModel(s.topology, machine=MACHINE)
        pred = model.predict(8)
        assert pred.time > 0
        assert pred.critical_path_patches >= 1


class TestModelVsDES:
    def test_model_tracks_des_within_factor_two(self):
        """The closed form is an optimistic bound; it must stay within
        2x of the DES and below it (it ignores contention/overheads)."""
        for cores in (8, 16, 32):
            nprocs = MACHINE.layout(cores, "hybrid").nprocs
            pset, s = _solver(nprocs, n=16)
            model = SweepPerformanceModel(s.topology, machine=MACHINE)
            pred = model.predict(cores)
            progs, _ = s.build_programs(compute=False)
            rep = DataDrivenRuntime(cores, machine=MACHINE).run(
                progs, pset.patch_proc
            )
            assert pred.time <= rep.makespan * 1.15
            assert pred.time >= rep.makespan / 2.5

    def test_model_predicts_scaling_trend(self):
        """Model speedups and DES speedups agree in ordering."""
        times_m, times_d = [], []
        for cores in (8, 32):
            nprocs = MACHINE.layout(cores, "hybrid").nprocs
            pset, s = _solver(nprocs, n=16)
            model = SweepPerformanceModel(s.topology, machine=MACHINE)
            times_m.append(model.predict(cores).time)
            progs, _ = s.build_programs(compute=False)
            rep = DataDrivenRuntime(cores, machine=MACHINE).run(
                progs, pset.patch_proc
            )
            times_d.append(rep.makespan)
        sp_m = times_m[0] / times_m[1]
        sp_d = times_d[0] / times_d[1]
        assert sp_m == pytest.approx(sp_d, rel=0.5)
