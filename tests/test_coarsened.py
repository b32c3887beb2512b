"""Tests for the coarsened graph (Sec. V-E, Theorem 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.core import SerialEngine
from repro.framework import PatchSet
from repro.mesh import disk_tri_mesh
from repro.sweep.coarsened import (
    CoarsenedPatchGraph,
    build_coarsened,
    coarsened_is_acyclic,
)
from tests.conftest import make_solver


def _run(progs):
    eng = SerialEngine()
    for p in progs:
        eng.add_program(p)
    return eng.run()


@pytest.fixture()
def cube_cgs(cube8_patches):
    s = make_solver(cube8_patches, grain=10)
    return s, s.record_coarsened()


class TestBuild:
    def test_covers_all_vertices(self, cube_cgs):
        s, cgs = cube_cgs
        for (p, a), cg in cgs.items():
            assert cg.n_vertices == s.topology.graphs[(p, a)].n_local
            covered = np.concatenate(cg.clusters)
            assert len(np.unique(covered)) == cg.n_vertices

    def test_theorem1_acyclic(self, cube_cgs):
        _, cgs = cube_cgs
        assert coarsened_is_acyclic(cgs)

    def test_hand_built_two_cluster_cycles_are_rejected(self):
        """The negative case of Theorem 1's check: two clusters that
        wait on each other, inside one patch and across two."""
        def cg(patch, local_adj, remote_adj):
            n_cv = len(local_adj)
            return CoarsenedPatchGraph(
                patch=patch, angle=0,
                clusters=[np.array([c]) for c in range(n_cv)],
                init_counts=np.zeros(n_cv, dtype=np.int64),
                local_adj=local_adj, remote_adj=remote_adj,
            )

        chain = {(0, 0): cg(0, [[1], []], [[], [(1, 0, 1)]]),
                 (1, 0): cg(1, [[]], [[]])}
        local = {(0, 0): cg(0, [[1], [0]], [[], []])}
        across = {(0, 0): cg(0, [[]], [[(1, 0, 1)]]),
                  (1, 0): cg(1, [[]], [[(0, 0, 1)]])}
        assert coarsened_is_acyclic(chain)
        assert not coarsened_is_acyclic(local)
        assert not coarsened_is_acyclic(across)
        assert coarsened_is_acyclic({})

    def test_coarsening_reduces_vertices(self, cube_cgs):
        s, cgs = cube_cgs
        ncv = sum(cg.n_cv for cg in cgs.values())
        nv = sum(cg.n_vertices for cg in cgs.values())
        assert ncv < nv / 2  # grain 10 -> ratio well above 2

    def test_incomplete_recording_rejected(self, cube8_patches):
        s = make_solver(cube8_patches, grain=10)
        programs, _ = s.build_programs(compute=False, record_clusters=True)
        # Do not run: clusters empty.
        with pytest.raises(ReproError):
            build_coarsened(s.topology, programs)

    def test_grain_one_cg_equals_dag(self, cube8_patches):
        """With grain 1 every cluster is a single vertex: CG == DAG."""
        s = make_solver(cube8_patches, grain=1)
        cgs = s.record_coarsened()
        for (p, a), cg in cgs.items():
            g = s.topology.graphs[(p, a)]
            assert cg.n_cv == g.n_local
            assert all(len(c) == 1 for c in cg.clusters)


class TestCGExecution:
    def test_numerics_identical_to_dag(self, cube_cgs):
        s, cgs = cube_cgs
        ref, _, _ = s.sweep_once(mode="fast")
        progs, faces = s.build_coarsened_programs(cgs)
        _run(progs)
        phi, _ = s.accumulate(faces)
        np.testing.assert_array_equal(phi, ref)

    def test_unstructured_numerics(self, disk_patches):
        s = make_solver(disk_patches, sn=2, grain=8)
        cgs = s.record_coarsened()
        assert coarsened_is_acyclic(cgs)
        ref, _, _ = s.sweep_once(mode="fast")
        progs, faces = s.build_coarsened_programs(cgs)
        _run(progs)
        phi, _ = s.accumulate(faces)
        np.testing.assert_array_equal(phi, ref)

    def test_bookkeeping_shrinks(self, cube_cgs):
        """Total graph-op work (pops) drops by the mean cluster size."""
        s, cgs = cube_cgs
        dag_progs, _ = s.build_programs(compute=False)
        _run(dag_progs)
        dag_pops = sum(p.graph.n_local for p in dag_progs)

        cg_progs, _ = s.build_coarsened_programs(cgs, compute=False)
        _run(cg_progs)
        cg_pops = sum(p.cg.n_cv for p in cg_progs)
        assert cg_pops < dag_pops / 2

    def test_workload_complete(self, cube_cgs):
        s, cgs = cube_cgs
        progs, _ = s.build_coarsened_programs(cgs, compute=False)
        _run(progs)
        assert all(p.remaining_workload() == 0 for p in progs)

    def test_capture_restores_on_fresh_twins(self, cube_cgs):
        """``state_dict`` holds the counters, never the coarsened graph;
        twins loaded from it (through the codec) finish identically."""
        from repro.persist import decode, encode

        s, cgs = cube_cgs

        def rounds(progs, pending, n):
            index = {p.id: i for i, p in enumerate(progs)}
            trace = []
            for _ in range(n):
                for i, p in enumerate(progs):
                    box, pending[i] = pending[i], []
                    for stream in box:
                        p.input(stream)
                    p.compute()
                    for o in p.drain_outputs():
                        pending[index[o.dst]].append(o)
                        trace.append((i, o.dst, o.payload.tolist(), o.items))
                    trace.append(
                        (i, p.last_run_counters(), p.remaining_workload()))
            return trace

        progs, _ = s.build_coarsened_programs(cgs, compute=False)
        for p in progs:
            p.init()
        pending = [[] for _ in progs]
        rounds(progs, pending, 2)
        assert any(p.remaining_workload() for p in progs)  # a real cut
        snaps = [p.checkpoint() for p in progs]
        assert all(set(d) == {"counts", "heap", "solved", "outstreams", "last"}
                   for d in snaps)
        frozen = encode(snaps)
        at_cut = [list(b) for b in pending]
        want = rounds(progs, pending, 12)
        assert all(p.remaining_workload() == 0 for p in progs)
        twins, _ = s.build_coarsened_programs(cgs, compute=False)
        for t, d in zip(twins, decode(frozen)):
            t.restore(d)
        assert rounds(twins, at_cut, 12) == want
        assert encode(snaps) == frozen

    def test_stream_bytes_preserved(self, cube_cgs):
        """Coarsening saves bookkeeping, not bandwidth: total stream
        bytes equal the DAG sweep's."""
        s, cgs = cube_cgs
        dag_progs, _ = s.build_programs(compute=False)
        dag_stats = _run(dag_progs)
        cg_progs, _ = s.build_coarsened_programs(cgs, compute=False)
        cg_stats = _run(cg_progs)
        assert cg_stats.stream_items == dag_stats.stream_items
        assert cg_stats.streams <= dag_stats.streams


@given(grain=st.integers(1, 40), seed=st.integers(0, 20))
@settings(max_examples=15, deadline=None)
def test_theorem1_property(grain, seed):
    """Theorem 1 as a property: any grain, any decomposition seed,
    the derived coarsened graph is acyclic."""
    mesh = disk_tri_mesh(6)
    pset = PatchSet.from_unstructured(
        mesh, 20 + seed, nprocs=2, method="rcb"
    )
    s = make_solver(pset, sn=2, grain=grain)
    cgs = s.record_coarsened()
    assert coarsened_is_acyclic(cgs)
