"""Tests for the DES runtime: cluster model, cost model, scheduling."""

import re

import numpy as np
import pytest

from repro._util import ReproError
from repro.core import PatchProgram, ProgramId, SerialEngine, Stream
from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.runtime import (
    CATEGORIES,
    CostModel,
    DataDrivenRuntime,
    Machine,
    TIANHE2,
)
from repro.sweep.baselines import BSPSweepRuntime
from tests.conftest import make_solver


class TestMachine:
    def test_hybrid_layout(self):
        m = Machine(cores_per_proc=12)
        lay = m.layout(24, "hybrid")
        assert lay.nprocs == 2
        assert lay.workers_per_proc == 11  # master core reserved

    def test_mpi_only_layout(self):
        lay = TIANHE2.layout(24, "mpi_only")
        assert lay.nprocs == 24
        assert lay.workers_per_proc == 1

    def test_hybrid_requires_multiple(self):
        with pytest.raises(ReproError):
            TIANHE2.layout(13, "hybrid")

    def test_unknown_mode(self):
        with pytest.raises(ReproError):
            TIANHE2.layout(12, "bulk")

    def test_message_time_monotone_in_size(self):
        lay = TIANHE2.layout(48, "hybrid")
        t1 = TIANHE2.message_time(0, 3, 100, lay)
        t2 = TIANHE2.message_time(0, 3, 100_000, lay)
        assert t2 > t1

    def test_intra_node_cheaper(self):
        lay = TIANHE2.layout(48, "hybrid")  # 4 procs, 2 per node
        same = TIANHE2.message_time(0, 1, 0, lay)
        cross = TIANHE2.message_time(0, 2, 0, lay)
        assert same < cross

    def test_node_of_mpi_only(self):
        m = Machine(cores_per_proc=4, procs_per_node=2)
        lay = m.layout(16, "mpi_only")
        # 8 ranks per node.
        assert m.node_of(0, lay) == 0
        assert m.node_of(7, lay) == 0
        assert m.node_of(8, lay) == 1


class TestCostModel:
    def test_run_cost_categories(self):
        cm = CostModel()
        kernel, graph_op, pack, fixed = cm.run_cost_parts(
            "p", (10, 40, 10, 5), remote_streams=2, remote_items=8,
        )
        assert kernel == pytest.approx(10 * cm.t_vertex)
        assert pack == pytest.approx(
            2 * cm.t_pack_fixed + 8 * cm.t_pack_item
        )
        assert graph_op > 0
        assert fixed == cm.t_exec_fixed

    def test_groups_scale_kernel(self):
        c1 = CostModel(groups=1).run_cost_parts("p", (10, 0, 10, 0), 0, 0)
        c4 = CostModel(groups=4).run_cost_parts("p", (10, 0, 10, 0), 0, 0)
        assert c4[0] == pytest.approx(4 * c1[0])

    def test_pops_override(self):
        cm = CostModel()
        base = cm.run_cost_parts("p", (100, 0, 100, 0), 0, 0)
        coarse = cm.run_cost_parts("p", (100, 0, 2, 0), 0, 0)
        assert coarse[1] < base[1]


class _Reporting(PatchProgram):
    """Runs twice, reporting ``counters`` each time; its first run may
    emit one stream ``(src, dst)``."""

    def __init__(self, patch, counters=(0, 0, 0, 0), emit=None):
        super().__init__(patch, 0)
        self.counters, self.emit, self.runs, self.out = counters, emit, 0, []

    def input(self, stream):
        pass

    def compute(self):
        if self.emit is not None and not self.runs:
            src, dst = self.emit
            self.out.append(Stream(src=ProgramId(*src), dst=ProgramId(*dst)))
        self.runs += 1

    def output(self):
        return self.out.pop(0) if self.out else None

    def vote_to_halt(self):
        return self.runs >= 2

    def run_counters(self):
        return self.counters


@pytest.mark.parametrize("counters, named", [
    ((-1000, 0, 0, 0), "vertices=-1000"),
    ((10, float("nan"), 10, 0), "edges=nan"),
    ((10, 0, 10, -3), "input_items=-3"),
])
def test_negative_or_nan_run_counters_are_refused(counters, named):
    """Counters become virtual time in one place; a negative one would
    run the timeline backwards and a NaN poison it, without a word."""
    rt = DataDrivenRuntime(12)
    with pytest.raises(ReproError, match=re.escape(f"program (0,0) reported run counter {named}")):
        rt.run([_Reporting(0, counters)], np.zeros(1, dtype=np.int64))


@pytest.mark.parametrize("engine", ["serial", "des", "bsp"])
@pytest.mark.parametrize("emit, error", [
    (((0, 0), (7, 0)), "stream to unknown program (7,0)"),
    (((1, 0), (1, 0)), "program (0,0) emitted a stream claiming src (1,0)"),
], ids=["unknown-dst", "forged-src"])
def test_bad_streams_are_refused_alike_by_every_engine(engine, emit, error):
    """A stream to nobody, or one claiming another program's ``src``
    (the key of transport sequence numbers and resilient dedup), is
    the same named error on the serial engine, the DES and the BSP
    baseline: all three admit a fresh stream through one function."""
    progs = [_Reporting(0, emit=emit), _Reporting(1)]
    with pytest.raises(ReproError, match=re.escape(error)):
        if engine == "serial":
            eng = SerialEngine()
            for prog in progs:
                eng.add_program(prog)
            eng.run()
        elif engine == "des":
            DataDrivenRuntime(12).run(progs, np.zeros(2, dtype=np.int64))
        else:
            BSPSweepRuntime(12).run(progs, np.zeros(2, dtype=np.int64))


def _des_setup(cores=16, nprocs=None, machine=None, patch_shape=(4, 4, 4),
               **solver_kw):
    machine = machine or Machine(cores_per_proc=4)
    nprocs = nprocs or machine.layout(cores, "hybrid").nprocs
    mesh = cube_structured(8, length=4.0)
    pset = PatchSet.from_structured(mesh, patch_shape, nprocs=nprocs)
    solver = make_solver(pset, **solver_kw)
    return machine, pset, solver


class TestDESExecution:
    def test_numerics_match_fast(self):
        machine, pset, s = _des_setup(grain=16)
        ref, _, _ = s.sweep_once(mode="fast")
        progs, faces = s.build_programs()
        DataDrivenRuntime(16, machine=machine).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        np.testing.assert_array_equal(phi, ref)

    def test_all_work_completed(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        rep = DataDrivenRuntime(16, machine=machine).run(
            progs, pset.patch_proc
        )
        assert rep.vertices_solved == s.topology.num_vertices

    def test_more_cores_not_slower(self):
        machine = Machine(cores_per_proc=4)
        times = []
        for cores in (4, 16):
            _, pset, s = _des_setup(cores=cores, machine=machine, sn=4)
            progs, _ = s.build_programs(compute=False)
            rep = DataDrivenRuntime(cores, machine=machine).run(
                progs, pset.patch_proc
            )
            times.append(rep.makespan)
        assert times[1] < times[0]

    def test_breakdown_accounts_all_time(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        rep = DataDrivenRuntime(16, machine=machine).run(
            progs, pset.patch_proc
        )
        total = rep.breakdown.total()
        assert total == pytest.approx(rep.makespan * rep.total_cores, rel=1e-6)
        fr = rep.breakdown.fractions()
        assert set(fr) == set(CATEGORIES)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_report_traffic_consistency(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        rep = DataDrivenRuntime(16, machine=machine).run(
            progs, pset.patch_proc
        )
        assert rep.messages > 0
        assert rep.message_bytes > 0
        assert rep.executions >= len(progs)

    def test_mpi_only_mode_runs(self):
        machine, pset, s = _des_setup(nprocs=16, patch_shape=(2, 2, 2))
        progs, _ = s.build_programs(compute=False)
        rep = DataDrivenRuntime(
            16, machine=machine, mode="mpi_only"
        ).run(progs, pset.patch_proc)
        assert rep.vertices_solved == s.topology.num_vertices
        # One core per rank: total cores == 16, no separate master.
        assert rep.total_cores == 16

    def test_hybrid_beats_mpi_only_same_cores(self):
        """The paper's Fig. 17 claim: the hybrid runtime wins."""
        machine = Machine(cores_per_proc=4)
        cores = 16
        _, pset_h, s_h = _des_setup(cores=cores, machine=machine, sn=4)
        progs, _ = s_h.build_programs(compute=False)
        hyb = DataDrivenRuntime(cores, machine=machine).run(
            progs, pset_h.patch_proc
        )
        _, pset_m, s_m = _des_setup(
            nprocs=cores, machine=machine, sn=4, patch_shape=(2, 2, 2)
        )
        progs_m, _ = s_m.build_programs(compute=False)
        mpi = DataDrivenRuntime(cores, machine=machine, mode="mpi_only").run(
            progs_m, pset_m.patch_proc
        )
        assert hyb.makespan < mpi.makespan

    def test_consensus_termination_adds_time(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        r1 = DataDrivenRuntime(16, machine=machine).run(progs, pset.patch_proc)
        progs2, _ = s.build_programs(compute=False)
        r2 = DataDrivenRuntime(
            16, machine=machine, termination="consensus"
        ).run(progs2, pset.patch_proc)
        assert r2.termination_hops == 7  # 2n - 1 marker hops, n = 4 procs
        assert r2.termination_time == r2.termination_hops * machine.latency_inter
        assert r2.makespan > r1.makespan - 1e-12

    def test_layout_mismatch_rejected(self):
        machine, pset, s = _des_setup()  # 4 procs
        progs, _ = s.build_programs(compute=False)
        with pytest.raises(ReproError):
            DataDrivenRuntime(4, machine=machine).run(progs, pset.patch_proc)

    def test_empty_programs_rejected(self):
        with pytest.raises(ReproError):
            DataDrivenRuntime(4, machine=Machine(cores_per_proc=4)).run(
                [], np.zeros(1, dtype=np.int64)
            )

    def test_deterministic(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        r1 = DataDrivenRuntime(16, machine=machine).run(progs, pset.patch_proc)
        progs2, _ = s.build_programs(compute=False)
        r2 = DataDrivenRuntime(16, machine=machine).run(progs2, pset.patch_proc)
        assert r1.makespan == r2.makespan
        assert r1.executions == r2.executions

    def test_unknown_termination(self):
        with pytest.raises(ReproError):
            DataDrivenRuntime(4, machine=Machine(cores_per_proc=4),
                              termination="vibes")


class TestScalingShapes:
    """Coarse qualitative checks that the figures' shapes can emerge."""

    def test_idle_grows_with_cores_strong_scaling(self):
        machine = Machine(cores_per_proc=4)
        mesh = cube_structured(8, length=4.0)
        idles = []
        for cores in (8, 32):
            nprocs = machine.layout(cores, "hybrid").nprocs
            pset = PatchSet.from_structured(mesh, (2, 2, 2), nprocs=nprocs)
            s = make_solver(pset, sn=2)
            progs, _ = s.build_programs(compute=False)
            rep = DataDrivenRuntime(cores, machine=machine).run(
                progs, pset.patch_proc
            )
            idles.append(rep.idle_fraction())
        assert idles[1] > idles[0]

    def test_clustering_grain_tradeoff_exists(self):
        """Tiny grain pays scheduling; the sweet spot beats grain=1."""
        machine, pset, s = _des_setup(sn=4)
        times = {}
        for grain in (1, 32):
            progs, _ = s.build_programs(compute=False, grain=grain)
            rep = DataDrivenRuntime(16, machine=machine).run(
                progs, pset.patch_proc
            )
            times[grain] = rep.makespan
        assert times[32] < times[1]


class TestPatchProcValidation:
    """run() must reject malformed route tables outright, not fail
    obscurely mid-simulation."""

    def _runtime(self):
        return DataDrivenRuntime(16, machine=Machine(cores_per_proc=4))

    def test_negative_proc_id_rejected(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        bad = pset.patch_proc.copy()
        bad[0] = -1
        with pytest.raises(ReproError, match="negative"):
            DataDrivenRuntime(16, machine=machine).run(progs, bad)

    def test_too_short_for_programs_rejected(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        short = pset.patch_proc[:1].copy()  # program patches out of range
        with pytest.raises(ReproError, match="outside"):
            DataDrivenRuntime(16, machine=machine).run(progs, short)

    def test_two_dimensional_rejected(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        bad = np.zeros((len(pset.patch_proc), 2), dtype=np.int64)
        with pytest.raises(ReproError, match="one-dimensional"):
            DataDrivenRuntime(16, machine=machine).run(progs, bad)

    def test_empty_rejected(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        with pytest.raises(ReproError):
            DataDrivenRuntime(16, machine=machine).run(
                progs, np.zeros(0, dtype=np.int64)
            )

    def test_valid_table_accepted(self):
        machine, pset, s = _des_setup()
        progs, _ = s.build_programs(compute=False)
        rep = DataDrivenRuntime(16, machine=machine).run(
            progs, pset.patch_proc
        )
        assert rep.vertices_solved == s.topology.num_vertices
