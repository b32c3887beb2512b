"""Tests for sweep DAG construction (repro.sweep.dag)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import PatchSet, build_interfaces
from repro.mesh import cube_structured, disk_tri_mesh
from repro.sweep import (
    SweepTopology,
    check_acyclic,
    directed_edges,
    level_symmetric,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestDirectedEdges:
    def test_structured_axis_direction(self, cube8):
        it = build_interfaces(cube8)
        u, v = directed_edges(it, np.array([1.0, 0.0, 0.0]))
        # Only x-interfaces active: n*n*(n-1) of them.
        assert len(u) == 8 * 8 * 7
        mi_u = np.array(np.unravel_index(u, cube8.shape)).T
        mi_v = np.array(np.unravel_index(v, cube8.shape)).T
        assert np.all(mi_v[:, 0] - mi_u[:, 0] == 1)

    def test_direction_reversal_flips_edges(self, disk):
        it = build_interfaces(disk)
        d = _unit([0.3, 0.8, 0.5])
        u1, v1 = directed_edges(it, d)
        u2, v2 = directed_edges(it, -d)
        assert sorted(zip(u1.tolist(), v1.tolist())) == sorted(
            zip(v2.tolist(), u2.tolist())
        )

    def test_diagonal_direction_has_all_interfaces(self, cube8):
        it = build_interfaces(cube8)
        u, v = directed_edges(it, _unit([1.0, 1.0, 1.0]))
        assert len(u) == it.num_interfaces

    def test_every_edge_is_an_interface(self, ball):
        it = build_interfaces(ball)
        u, v = directed_edges(it, _unit([0.2, -0.5, 0.9]))
        pairs = {
            (min(a, b), max(a, b))
            for a, b in zip(it.cell_a.tolist(), it.cell_b.tolist())
        }
        for a, b in zip(u.tolist(), v.tolist()):
            assert (min(a, b), max(a, b)) in pairs


class TestAcyclicity:
    @pytest.mark.parametrize(
        "meshname", ["cube8", "disk", "ball", "warped", "kuhn_cube"]
    )
    def test_all_meshes_acyclic_for_sample_directions(self, meshname, request):
        mesh = request.getfixturevalue(meshname)
        it = build_interfaces(mesh)
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = _unit(rng.standard_normal(3))
            u, v = directed_edges(it, d)
            assert check_acyclic(mesh.num_cells, u, v)

    def test_cycle_detected(self):
        # 3-cycle.
        u = np.array([0, 1, 2])
        v = np.array([1, 2, 0])
        assert not check_acyclic(3, u, v)

    def test_empty_graph_acyclic(self):
        assert check_acyclic(5, np.zeros(0, np.int64), np.zeros(0, np.int64))


class TestSweepTopology:
    @pytest.fixture(scope="class")
    def topo(self):
        mesh = cube_structured(6)
        pset = PatchSet.from_structured(mesh, (3, 3, 3), nprocs=2)
        return SweepTopology(pset, level_symmetric(2), validate=True)

    def test_graph_per_patch_angle(self, topo):
        assert len(topo.graphs) == topo.pset.num_patches * 8
        assert topo.num_vertices == 6**3 * 8

    def test_counts_match_edges(self, topo):
        """Sum of init counts == total edges, per angle."""
        for a in range(topo.num_angles):
            total_counts = sum(
                topo.graphs[(p, a)].init_counts.sum()
                for p in range(topo.pset.num_patches)
            )
            total_edges = sum(
                topo.graphs[(p, a)].num_local_edges
                + topo.graphs[(p, a)].num_remote_edges
                for p in range(topo.pset.num_patches)
            )
            assert total_counts == total_edges

    def test_remote_edges_cross_patches(self, topo):
        for (p, a), g in topo.graphs.items():
            assert np.all(g.dr_patch != p)

    def test_sources_exist_somewhere(self, topo):
        """Every angle has at least one globally ready vertex."""
        for a in range(topo.num_angles):
            srcs = sum(
                len(topo.graphs[(p, a)].source_vertices)
                for p in range(topo.pset.num_patches)
            )
            assert srcs > 0

    def test_corner_cell_is_source(self, topo):
        """The most-upwind corner cell has zero in-degree for S2 angle
        pointing into the domain from that corner."""
        q = topo.quadrature
        for a in range(q.num_angles):
            d = q.directions[a]
            # Corner at the upwind extreme of the domain.
            corner = tuple(0 if d[ax] > 0 else 5 for ax in range(3))
            lin = topo.pset.mesh.linear_index(corner)
            p = int(topo.pset.cell_patch[lin])
            loc = int(topo.pset.cell_local[lin])
            assert topo.graphs[(p, a)].init_counts[loc] == 0

    def test_patch_dag_nonempty(self, topo):
        for a in range(topo.num_angles):
            assert len(topo.patch_dag[a]) > 0

    def test_adjacency_flat_cached(self, topo):
        g = topo.graphs[(0, 0)]
        l1 = g.adjacency_flat()
        l2 = g.adjacency_flat()
        assert l1 is l2

    def test_boundary_vertices(self, topo):
        g = topo.graphs[(0, 0)]
        bnd = g.boundary_vertices()
        deg = np.diff(g.dr_indptr)
        np.testing.assert_array_equal(bnd, np.nonzero(deg > 0)[0])


class TestTopologyUnstructured:
    def test_disk_topology_counts(self, disk_patches):
        topo = SweepTopology(disk_patches, level_symmetric(2))
        total_local = sum(
            g.n_local for (p, a), g in topo.graphs.items() if a == 0
        )
        assert total_local == disk_patches.mesh.num_cells

    def test_interleaved_dependency_possible(self):
        """Fig. 4: cross-patch edges both ways for some angle on an
        irregular decomposition (the reason reentrancy is needed)."""
        mesh = disk_tri_mesh(8)
        pset = PatchSet.from_unstructured(mesh, 30, nprocs=1)
        topo = SweepTopology(pset, level_symmetric(2))
        found = False
        for a in range(topo.num_angles):
            pairs = set(map(tuple, topo.patch_dag[a].tolist()))
            if any((b, x) in pairs for (x, b) in pairs):
                found = True
        assert found


@given(seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_sweep_dag_acyclic_random_directions(seed, ):
    """Property: any direction induces an acyclic dependency graph on a
    Delaunay disk mesh."""
    mesh = disk_tri_mesh(6)
    it = build_interfaces(mesh)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(3)
    d[2] = 0.0
    if np.linalg.norm(d) < 1e-6:
        d = np.array([1.0, 0.0, 0.0])
    d = d / np.linalg.norm(d)
    u, v = directed_edges(it, d)
    assert check_acyclic(mesh.num_cells, u, v)
