"""Tests for the multi-level priority strategies (Sec. V-D)."""

import numpy as np
import pytest

from repro._util import ReproError
from repro.framework import PatchSet
from repro.apps import kobayashi_mesh
from repro.mesh import cube_structured, disk_tri_mesh, reactor_mesh_2d
from repro.sweep import (
    ANGLE_FACTOR,
    PriorityStrategy,
    SweepTopology,
    apply_priorities,
    level_symmetric,
    patch_priorities,
    vertex_priorities,
)
from repro.sweep.dag import PatchAngleGraph
from repro.sweep.priorities import batched_vertex_priorities


@pytest.fixture(scope="module")
def topo():
    mesh = cube_structured(6)
    pset = PatchSet.from_structured(mesh, (3, 3, 3), nprocs=2)
    return SweepTopology(pset, level_symmetric(2))


@pytest.fixture(scope="module")
def disk_topo():
    mesh = disk_tri_mesh(7)
    pset = PatchSet.from_unstructured(mesh, 30, nprocs=2)
    return SweepTopology(pset, level_symmetric(2))


@pytest.fixture(scope="module")
def uneven_topos():
    """Kobayashi with uneven patches (10 = 4 + 4 + 2 = 3 * 3 + 1 = 5 + 5)
    and the 2-D reactor."""
    koba = PatchSet.from_structured(kobayashi_mesh(10), (4, 3, 5), nprocs=2)
    reactor = PatchSet.from_unstructured(reactor_mesh_2d(6), 40, nprocs=2)
    return (SweepTopology(koba, level_symmetric(4)),
            SweepTopology(reactor, level_symmetric(4)))


class TestStrategyParsing:
    def test_parse_pair(self):
        s = PriorityStrategy.parse("LDCP+SLBD")
        assert s.patch == "ldcp" and s.vertex == "slbd"
        assert str(s) == "LDCP+SLBD"

    def test_parse_single_applies_both(self):
        s = PriorityStrategy.parse("bfs")
        assert s.patch == "bfs" and s.vertex == "bfs"

    def test_unknown_rejected(self):
        with pytest.raises(ReproError):
            PriorityStrategy.parse("random")
        with pytest.raises(ReproError):
            PriorityStrategy.parse("a+b+c")


class TestVertexPriorities:
    def test_fifo_all_zero(self, topo):
        g = topo.graphs[(0, 0)]
        np.testing.assert_array_equal(vertex_priorities(g, "fifo"), 0.0)

    def test_bfs_levels_respect_edges(self, topo):
        g = topo.graphs[(0, 0)]
        level = vertex_priorities(g, "bfs")
        for v in range(g.n_local):
            for i in range(g.dl_indptr[v], g.dl_indptr[v + 1]):
                assert level[g.dl_target[i]] >= level[v] + 1

    def test_ldcp_heights_respect_edges(self, topo):
        g = topo.graphs[(0, 0)]
        key = vertex_priorities(g, "ldcp")  # key = -height
        h = -key
        for v in range(g.n_local):
            for i in range(g.dl_indptr[v], g.dl_indptr[v + 1]):
                assert h[v] >= h[g.dl_target[i]] + 1

    def test_slbd_zero_on_boundary(self, topo):
        g = topo.graphs[(0, 0)]
        d = vertex_priorities(g, "slbd")
        bnd = g.boundary_vertices()
        np.testing.assert_array_equal(d[bnd], 0.0)

    def test_slbd_triangle_inequality(self, disk_topo):
        for key in [(0, 0), (1, 3)]:
            g = disk_topo.graphs[key]
            d = vertex_priorities(g, "slbd")
            for v in range(g.n_local):
                for i in range(g.dl_indptr[v], g.dl_indptr[v + 1]):
                    w = g.dl_target[i]
                    assert d[v] <= d[w] + 1 + 1e-9

    def test_unknown_strategy(self, topo):
        with pytest.raises(ReproError):
            vertex_priorities(topo.graphs[(0, 0)], "xxx")

    @pytest.mark.parametrize("strategy", ["fifo", "bfs", "ldcp", "slbd"])
    def test_batched_pass_equals_the_per_graph_loops(
        self, topo, disk_topo, uneven_topos, strategy
    ):
        """One Kahn-front peel over the union of all subgraphs sets
        what the scalar per-graph recurrences compute, bit for bit."""
        for t in (topo, disk_topo, *uneven_topos):
            graphs = list(t.graphs.values())
            batched_vertex_priorities(graphs, strategy)
            for g in graphs:
                want = vertex_priorities(g, strategy)
                assert np.array_equal(g.vertex_prio, want)
                keys = want.astype(np.int64) * g.n_local + np.arange(g.n_local)
                assert np.array_equal(g.vertex_keys, keys)

    def test_batched_pass_rejects_a_cyclic_subgraph(self):
        loop = PatchAngleGraph(
            patch=0, n_local=2, init_counts=np.array([1, 1]),
            dl_indptr=np.array([0, 1, 2]), dl_target=np.array([1, 0]),
            dr_indptr=np.zeros(3, dtype=np.int64),
            dr_patch=np.zeros(0, dtype=np.int64),
            dr_local=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ReproError, match="patch-local sweep subgraph is cyclic"):
            batched_vertex_priorities([loop], "bfs")


class TestPatchPriorities:
    def test_bfs_upwind_higher(self, topo):
        pr = patch_priorities(topo, "bfs")
        # For each angle, source patches (level 0) get priority 0 >=
        # downwind patches (negative).
        for a in range(topo.num_angles):
            vals = [pr[(p, a)] for p in range(topo.pset.num_patches)]
            assert max(vals) == 0.0
            assert min(vals) < 0.0

    def test_ldcp_respects_patch_dag(self, topo):
        pr = patch_priorities(topo, "ldcp")
        for a in range(topo.num_angles):
            pairs = set(map(tuple, topo.patch_dag[a].tolist()))
            cyclic_pairs = {(u, v) for (u, v) in pairs if (v, u) in pairs}
            for u, v in pairs - cyclic_pairs:
                assert pr[(u, a)] >= pr[(v, a)]

    def test_slbd_and_fifo_are_flat(self, topo):
        for strat in ("slbd", "fifo"):
            pr = patch_priorities(topo, strat)
            assert set(pr.values()) == {0.0}

    def test_handles_cyclic_patch_graph(self, disk_topo):
        # The disk decomposition has interleaved patch deps; must not raise.
        pr = patch_priorities(disk_topo, "ldcp")
        assert len(pr) == disk_topo.pset.num_patches * disk_topo.num_angles


class TestCombinedPriorities:
    def test_angle_dominates(self, topo):
        static = apply_priorities(topo, "ldcp+ldcp")
        np_ = topo.pset.num_patches
        for a in range(topo.num_angles - 1):
            lo_next = min(static[(p, a)] for p in range(np_))
            hi_next = max(static[(p, a + 1)] for p in range(np_))
            assert lo_next > hi_next  # angle a strictly before a+1

    def test_vertex_keys_installed(self, topo):
        apply_priorities(topo, "slbd+slbd")
        for g in topo.graphs.values():
            assert g.vertex_prio is not None
            assert len(g.vertex_prio) == g.n_local

    def test_formula(self, topo):
        patch_term = patch_priorities(topo, "ldcp")
        static = apply_priorities(topo, "ldcp+bfs")
        na = topo.num_angles
        for (p, a), v in static.items():
            assert v == pytest.approx(
                (na - a) * ANGLE_FACTOR + patch_term[(p, a)]
            )
