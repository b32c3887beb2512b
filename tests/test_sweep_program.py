"""Tests for SweepPatchProgram (Listing 1) executed on the serial engine."""

import pytest

from repro._util import ReproError
from repro.core import SerialEngine
from repro.framework import PatchSet
from repro.mesh import cube_structured, disk_tri_mesh
from repro.sweep import SweepTopology, apply_priorities, level_symmetric
from repro.sweep.sweep_program import SweepPatchProgram, check_grain


def _programs(pset, quad, grain, record=False, strategy="fifo+fifo"):
    topo = SweepTopology(pset, quad)
    static = apply_priorities(topo, strategy)
    progs = []
    for (p, a), g in topo.graphs.items():
        progs.append(
            SweepPatchProgram(
                g,
                cells_global=pset.patches[p].cells,
                grain=grain,
                static_priority=static[(p, a)],
                record_clusters=record,
                angle=a,
            )
        )
    return topo, progs


def _run(progs):
    eng = SerialEngine()
    for p in progs:
        eng.add_program(p)
    stats = eng.run()
    return eng, stats


@pytest.fixture(scope="module")
def small_pset():
    return PatchSet.from_structured(cube_structured(6), (3, 3, 3), nprocs=2)


class TestSweepCompletion:
    @pytest.mark.parametrize("grain", [1, 4, 27, 1000])
    def test_all_vertices_swept(self, small_pset, grain):
        topo, progs = _programs(small_pset, level_symmetric(2), grain)
        _run(progs)
        for prog in progs:
            assert prog.remaining_workload() == 0

    def test_grain_bounds_cluster_size(self, small_pset):
        topo, progs = _programs(
            small_pset, level_symmetric(2), grain=5, record=True
        )
        _run(progs)
        for prog in progs:
            assert max(len(c) for c in prog.clusters) <= 5

    def test_grain_reduces_executions(self, small_pset):
        _, progs1 = _programs(small_pset, level_symmetric(2), grain=1)
        _, stats1 = _run(progs1)
        _, progsN = _programs(small_pset, level_symmetric(2), grain=27)
        _, statsN = _run(progsN)
        assert statsN.executions < stats1.executions

    def test_clustering_aggregates_streams(self, small_pset):
        """Bigger grain means fewer, larger streams (Sec. V-C)."""
        _, progs1 = _programs(small_pset, level_symmetric(2), grain=1)
        _, stats1 = _run(progs1)
        _, progsN = _programs(small_pset, level_symmetric(2), grain=27)
        _, statsN = _run(progsN)
        assert statsN.streams < stats1.streams
        assert statsN.stream_items == stats1.stream_items  # same data

    def test_unstructured_sweep_completes(self):
        mesh = disk_tri_mesh(7)
        pset = PatchSet.from_unstructured(mesh, 25, nprocs=2)
        topo, progs = _programs(pset, level_symmetric(4), grain=8)
        _run(progs)
        assert all(p.remaining_workload() == 0 for p in progs)


class TestClusterValidity:
    def test_clusters_in_topological_order(self, small_pset):
        """Within the recorded execution, no vertex is solved before
        all its upwind neighbours (local and remote)."""
        topo, progs = _programs(
            small_pset, level_symmetric(2), grain=6, record=True
        )
        _run(progs)
        # Rebuild a global solve order and verify edges.
        # Serial engine executes programs one at a time, so concatenate
        # per-program clusters in the order of stream causality: verify
        # per-patch local constraints instead (remote order is enforced
        # by count semantics, checked via remaining_workload == 0).
        for prog in progs:
            g = prog.graph
            pos = {}
            t = 0
            for cluster in prog.clusters:
                for v in cluster:
                    pos[v] = t
                    t += 1
            for v in range(g.n_local):
                for i in range(g.dl_indptr[v], g.dl_indptr[v + 1]):
                    assert pos[v] < pos[g.dl_target[i]]

    def test_solve_fn_sees_dependency_order(self, small_pset):
        """The solve callback receives cells only after their upwind
        cells (in the same angle) were already passed to it."""
        quad = level_symmetric(2)
        topo = SweepTopology(small_pset, quad)
        apply_priorities(topo, "fifo+fifo")
        seen: dict[int, set] = {a: set() for a in range(quad.num_angles)}
        violations = []

        from repro.framework import build_interfaces
        from repro.sweep import directed_edges

        it = build_interfaces(small_pset.mesh)
        upwind = {}
        for a in range(quad.num_angles):
            u, v = directed_edges(it, quad.directions[a])
            up = {}
            for x, y in zip(u.tolist(), v.tolist()):
                up.setdefault(y, []).append(x)
            upwind[a] = up

        def solve(cells, angle):
            for c in cells.tolist():
                for u in upwind[angle].get(c, []):
                    if u not in seen[angle]:
                        violations.append((angle, u, c))
                seen[angle].add(c)

        progs = []
        for (p, a), g in topo.graphs.items():
            progs.append(
                SweepPatchProgram(
                    g,
                    cells_global=small_pset.patches[p].cells,
                    grain=9,
                    solve_fn=solve,
                    angle=a,
                )
            )
        _run(progs)
        assert violations == []
        assert all(
            len(seen[a]) == small_pset.mesh.num_cells
            for a in range(quad.num_angles)
        )


class TestProgramMechanics:
    def test_invalid_grain(self, small_pset):
        topo = SweepTopology(small_pset, level_symmetric(2))
        g = topo.graphs[(0, 0)]
        # The same structured error as SnSolver(grain=0): one check.
        with pytest.raises(ReproError, match="grain=0"):
            SweepPatchProgram(g, small_pset.patches[0].cells, grain=0, angle=0)

    @pytest.mark.parametrize("grain", [1.5, 0.5, True, False, 16.0])
    def test_fractional_or_bool_grain_is_refused(self, small_pset, grain):
        """A run pops ``grain`` vertices: a fractional budget never
        counts down to zero (so a run would pop the whole ready heap)
        and a bool is no count.  Refused where the grain enters."""
        topo = SweepTopology(small_pset, level_symmetric(2))
        g = topo.graphs[(0, 0)]
        with pytest.raises(ReproError, match=f"grain={grain!r}"):
            SweepPatchProgram(g, small_pset.patches[0].cells, grain=grain, angle=0)
        with pytest.raises(ReproError, match="integral"):
            check_grain(grain)

    def test_counters_reported_once(self, small_pset):
        topo, progs = _programs(small_pset, level_symmetric(2), grain=1000)
        eng, _ = _run(progs)
        # After the run, counters were consumed by nobody (serial engine
        # ignores them): run_counters drains.
        c1 = progs[0].run_counters()
        c2 = progs[0].run_counters()
        assert c1[0] > 0
        assert c2 == (0, 0, 0, 0)

    def test_dynamic_priority_uses_heap_head(self, small_pset):
        topo = SweepTopology(small_pset, level_symmetric(2))
        apply_priorities(topo, "slbd+slbd")
        g = topo.graphs[(0, 0)]
        prog = SweepPatchProgram(
            g,
            small_pset.patches[0].cells,
            grain=4,
            static_priority=10.0,
            dynamic_priority=True,
            angle=0,
        )
        prog.init()
        base = SweepPatchProgram(
            g, small_pset.patches[0].cells, grain=4, static_priority=10.0,
            angle=0,
        )
        base.init()
        assert prog.priority() != base.priority() or not prog._heap

    def test_partial_computation_fig4(self):
        """Two patches with interleaved dependencies both need several
        executions (Fig. 4's point: patch programs must be reentrant)."""
        mesh = disk_tri_mesh(8)
        pset = PatchSet.from_unstructured(mesh, mesh.num_cells // 2 + 1, nprocs=1)
        assert pset.num_patches == 2
        topo, progs = _programs(pset, level_symmetric(2), grain=10**9)
        _, stats = _run(progs)
        # With unbounded grain, pure block decompositions would need 1
        # execution per program; interleaving forces re-execution.
        assert stats.executions > len(progs)
