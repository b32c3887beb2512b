"""Tests for the KBA and BSP baselines."""

import numpy as np
import pytest

from repro._util import ReproError
from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.runtime import DataDrivenRuntime, Machine
from repro.sweep.baselines import BSPSweepRuntime, KBASchedule
from tests.conftest import make_solver


class TestKBA:
    def test_single_proc_is_serial(self):
        r = KBASchedule((16, 16, 16), 1, 1, k_blocks=4).simulate(8)
        assert r.efficiency(1) == pytest.approx(1.0, rel=0.01)

    def test_efficiency_decays_with_procs(self):
        effs = []
        for px in (2, 4, 8):
            r = KBASchedule((32, 32, 32), px, px, k_blocks=4).simulate(8)
            effs.append(r.efficiency(px * px))
        assert effs[0] > effs[1] > effs[2]

    def test_more_angles_improve_pipelining(self):
        """Deeper angle pipelines amortize the wavefront fill."""
        e_few = KBASchedule((32, 32, 32), 8, 8, k_blocks=4).simulate(8)
        e_many = KBASchedule((32, 32, 32), 8, 8, k_blocks=4).simulate(64)
        assert e_many.efficiency(64) > e_few.efficiency(64)

    def test_more_kblocks_improve_pipelining(self):
        e1 = KBASchedule((32, 32, 32), 8, 8, k_blocks=1).simulate(8)
        e8 = KBASchedule((32, 32, 32), 8, 8, k_blocks=8).simulate(8)
        assert e8.efficiency(64) > e1.efficiency(64)

    def test_task_count(self):
        r = KBASchedule((16, 16, 16), 2, 2, k_blocks=4).simulate(8)
        # 4 phases x 2 octants x 1 angle x 2 x 2 x 4 blocks.
        assert r.num_tasks == 4 * 2 * 1 * 2 * 2 * 4

    def test_validation(self):
        with pytest.raises(ReproError):
            KBASchedule((8, 8), 2, 2)
        with pytest.raises(ReproError):
            KBASchedule((8, 8, 8), 16, 2)
        with pytest.raises(ReproError):
            KBASchedule((8, 8, 8), 0, 2)

    def test_speedup_definition(self):
        r = KBASchedule((16, 16, 16), 4, 4, k_blocks=4).simulate(16)
        assert r.speedup == pytest.approx(r.serial_time / r.time)


def _bsp_setup(nprocs=4, sn=2, grain=16):
    machine = Machine(cores_per_proc=4)
    mesh = cube_structured(8, length=4.0)
    pset = PatchSet.from_structured(mesh, (2, 2, 4), nprocs=nprocs)
    solver = make_solver(pset, sn=sn, grain=grain)
    return machine, pset, solver


class TestBSPSweep:
    def test_completes_all_work(self):
        machine, pset, s = _bsp_setup()
        progs, _ = s.build_programs(compute=False)
        rep = BSPSweepRuntime(16, machine=machine).run(progs, pset.patch_proc)
        assert rep.supersteps > 1
        assert rep.time > 0

    def test_numerics_identical(self):
        machine, pset, s = _bsp_setup()
        ref, _, _ = s.sweep_once(mode="fast")
        progs, faces = s.build_programs()
        BSPSweepRuntime(16, machine=machine).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        np.testing.assert_array_equal(phi, ref)

    def test_supersteps_track_critical_path(self):
        """More patches along the sweep direction => more supersteps."""
        machine = Machine(cores_per_proc=4)
        mesh = cube_structured(8, length=4.0)
        steps = []
        for shape in ((4, 4, 4), (2, 2, 2)):
            pset = PatchSet.from_structured(mesh, shape, nprocs=4)
            s = make_solver(pset, sn=2)
            progs, _ = s.build_programs(compute=False)
            rep = BSPSweepRuntime(16, machine=machine).run(
                progs, pset.patch_proc
            )
            steps.append(rep.supersteps)
        assert steps[1] > steps[0]

    def test_barrier_cost_accumulates(self):
        machine, pset, s = _bsp_setup()
        progs, _ = s.build_programs(compute=False)
        rep = BSPSweepRuntime(16, machine=machine).run(progs, pset.patch_proc)
        assert rep.barrier_time > 0
        assert rep.time >= rep.compute_time + rep.barrier_time

    def test_data_driven_beats_bsp_when_sync_dominates(self):
        """At scale (many processes, fine patches) the per-super-step
        barrier and the wait-for-next-step delivery dominate BSP - the
        paper's motivation for the data-driven model."""
        machine = Machine(cores_per_proc=4, latency_inter=5e-5,
                          latency_intra=2e-5)
        cores = 64  # 16 procs
        mesh = cube_structured(8, length=4.0)
        pset = PatchSet.from_structured(mesh, (2, 2, 2), nprocs=16)
        s = make_solver(pset, sn=4)
        progs, _ = s.build_programs(compute=False)
        dd = DataDrivenRuntime(cores, machine=machine).run(
            progs, pset.patch_proc
        )
        progs2, _ = s.build_programs(compute=False)
        bsp = BSPSweepRuntime(cores, machine=machine).run(
            progs2, pset.patch_proc
        )
        assert dd.makespan < bsp.time

    def test_layout_mismatch(self):
        machine, pset, s = _bsp_setup(nprocs=8)
        progs, _ = s.build_programs(compute=False)
        with pytest.raises(ReproError):
            BSPSweepRuntime(16, machine=machine).run(progs, pset.patch_proc)

    @pytest.mark.parametrize("table, named", [
        (lambda pp: np.concatenate([[-1], pp[1:]]), "negative process id -1"),
        (lambda pp: pp[:1], "references a patch outside patch_proc"),
        (lambda pp: np.stack([pp, pp], axis=1), "one-dimensional"),
    ], ids=["negative", "short", "two-dimensional"])
    def test_malformed_patch_proc_refused(self, table, named):
        """The DES router's route-table checks hold on BSP too: a
        negative id used to book patch 0 on the last process, a short
        table raised a bare IndexError and a 2-D one a TypeError."""
        machine, pset, s = _bsp_setup()
        progs, _ = s.build_programs(compute=False)
        with pytest.raises(ReproError, match=named):
            BSPSweepRuntime(16, machine=machine).run(progs, table(pset.patch_proc))

    def test_idle_fraction_bounded(self):
        machine, pset, s = _bsp_setup()
        progs, _ = s.build_programs(compute=False)
        rep = BSPSweepRuntime(16, machine=machine).run(progs, pset.patch_proc)
        assert 0.0 <= rep.idle_fraction(16) < 1.0
