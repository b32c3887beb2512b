"""Tests for topological levels and the vectorized kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.framework import PatchSet, build_interfaces
from repro.sweep import (
    Material,
    MaterialMap,
    SnSolver,
    directed_edges,
    level_symmetric,
)
from repro.sweep.dag import (
    condensation_fronts,
    csr_by_source,
    heap_keys,
    kahn_fronts,
    strong_components,
    topological_levels,
)


def _levels_by_scalar_peel(n, u, v):
    """The per-vertex Kahn loop ``topological_levels`` used to be."""
    indeg = np.bincount(v, minlength=n).tolist()
    succ = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        succ[a].append(b)
    current = [x for x in range(n) if indeg[x] == 0]
    levels = []
    while current:
        levels.append(current)
        nxt = []
        for x in current:
            for w in succ[x]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    nxt.append(w)
        current = sorted(nxt)
    return levels


def _random_dag(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, max(n, 1), m if n > 1 else 0)
    b = rng.integers(0, max(n, 1), len(a))
    rank = rng.permutation(n)  # edges (repeats allowed) follow a hidden order
    keep = a != b
    a, b = a[keep], b[keep]
    forward = rank[a] < rank[b]
    return np.where(forward, a, b), np.where(forward, b, a)


@given(n=st.integers(0, 25), m=st.integers(0, 80), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_levels_equal_the_scalar_peel_on_random_dags(n, m, seed):
    u, v = _random_dag(n, m, seed)
    levels = topological_levels(n, u, v)
    assert [l.tolist() for l in levels] == _levels_by_scalar_peel(n, u, v)
    assert all(l.dtype == np.int64 for l in levels)


@given(n=st.integers(0, 40), m=st.integers(0, 120), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_kahn_order_is_the_stable_argsort_of_the_fronts(n, m, seed):
    """The order and bounds the peel hands back are what a stable
    argsort of the front indices and its searchsorted bounds give."""
    u, v = _random_dag(n, m, seed)
    front_of, order, bounds = kahn_fronts(n, *csr_by_source(u, n, v), "g")
    want = np.argsort(front_of, kind="stable")
    assert order.dtype == want.dtype and np.array_equal(order, want)
    nfronts = int(front_of.max()) + 1 if n else 0
    assert bounds == np.searchsorted(front_of[want], np.arange(nfronts + 1)).tolist()


class TestTopologicalLevels:
    def test_chain(self):
        u = np.array([0, 1, 2])
        v = np.array([1, 2, 3])
        levels = topological_levels(4, u, v)
        assert [l.tolist() for l in levels] == [[0], [1], [2], [3]]

    def test_levels_are_independent(self, disk):
        it = build_interfaces(disk)
        d = np.array([0.6, 0.8, 0.0])
        u, v = directed_edges(it, d)
        levels = topological_levels(disk.num_cells, u, v)
        assert sum(len(l) for l in levels) == disk.num_cells
        edges = set(zip(u.tolist(), v.tolist()))
        for level in levels:
            s = set(level.tolist())
            for a in s:
                for b in s:
                    assert (a, b) not in edges

    def test_levels_respect_order(self, cube8):
        it = build_interfaces(cube8)
        u, v = directed_edges(it, np.array([1.0, 0, 0]))
        levels = topological_levels(cube8.num_cells, u, v)
        assert len(levels) == 8  # one level per x-plane
        rank = {}
        for i, level in enumerate(levels):
            for c in level:
                rank[int(c)] = i
        for a, b in zip(u.tolist(), v.tolist()):
            assert rank[a] < rank[b]

    def test_cycle_raises(self):
        u = np.array([0, 1])
        v = np.array([1, 0])
        with pytest.raises(ReproError, match="topological_levels: graph is cyclic"):
            topological_levels(2, u, v)

    def test_cycle_behind_a_dag_prefix_raises(self):
        u = np.array([0, 1, 2])
        v = np.array([1, 2, 1])
        with pytest.raises(ReproError, match="topological_levels: graph is cyclic"):
            topological_levels(3, u, v)


class TestCondensationFronts:
    # 0 -> {1 <-> 2} -> 3 -> 5, 0 -> 3, 4 alone.
    EDGES = np.array([[0, 1], [1, 2], [2, 1], [2, 3], [0, 3], [3, 5]])

    def test_hand_checked_fronts_from_the_sources_and_from_the_sinks(self):
        comp, front, cedges = condensation_fronts(6, self.EDGES)
        assert comp[1] == comp[2] and len(set(comp.tolist())) == 5
        assert front[comp].tolist() == [0, 1, 1, 2, 0, 3]
        pairs = {(int(comp[u]), int(comp[v])) for u, v in self.EDGES.tolist()
                 if comp[u] != comp[v]}
        assert set(map(tuple, cedges.tolist())) == pairs and len(cedges) == 4
        comp_r, back, _ = condensation_fronts(6, self.EDGES, reverse=True)
        assert back[comp_r].tolist() == [3, 2, 2, 1, 0, 0]

    def test_edgeless_graph_is_one_front(self):
        comp, front, cedges = condensation_fronts(3, np.zeros((0, 2), dtype=np.int64))
        assert sorted(comp.tolist()) == [0, 1, 2] and not front.any()
        assert cedges.shape == (0, 2)


@st.composite
def _digraphs(draw):
    """A random digraph on up to 60 vertices: self-loops, duplicate
    edges, isolated vertices and the empty edge set all occur."""
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, np.zeros((0, 2), dtype=np.int64)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


@given(graph=_digraphs())
@settings(max_examples=200, deadline=None)
def test_components_partition_the_vertices_as_scipy_does(graph):
    """The SCC partition is scipy's strong ``connected_components``
    (labels may differ), and the fronts and ``cedges`` describe the
    condensation: distinct cross-component edges, each raising the
    front from the sources (lowering it with ``reverse``) by at least
    one, and every front the longest such distance."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, edges = graph
    comp, front, cedges = condensation_fronts(n, edges)
    _, want = connected_components(
        csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)),
        connection="strong",
    )
    assert comp.dtype == np.int64 and len(comp) == n
    same = comp[:, None] == comp[None, :]
    assert np.array_equal(same, want[:, None] == want[None, :])
    ncomp = len(front)
    assert sorted(set(comp.tolist())) == list(range(ncomp))

    cross = {(int(comp[u]), int(comp[v])) for u, v in edges.tolist()
             if comp[u] != comp[v]}
    assert sorted(map(tuple, cedges.tolist())) == sorted(cross)
    assert cedges.shape == (len(cross), 2)
    _, back, back_edges = condensation_fronts(n, edges, reverse=True)
    assert np.array_equal(back_edges, cedges)
    for depth, a, b in ((front, 0, 1), (back, 1, 0)):
        best = np.zeros(ncomp, dtype=np.int64)
        for e in cedges:
            assert depth[e[b]] >= depth[e[a]] + 1
            best[e[b]] = max(best[e[b]], depth[e[a]] + 1)
        assert np.array_equal(depth, best)


def test_a_long_cycle_is_one_component():
    """The component search keeps its own stack: a cycle longer than
    Python's recursion limit is one component."""
    n = 5000
    u = np.arange(n)
    ncomp, comp = strong_components(n, *csr_by_source(u, n, (u + 1) % n))
    assert ncomp == 1 and not comp.any()


class TestHeapKeys:
    @pytest.mark.parametrize("prio", [
        None, [3.0, -2.0, 3.0, 0.0, -2.0], [0.5, -0.25, 0.5, 1e9, -0.25],
    ])
    def test_keys_order_as_prio_then_vertex_and_decode(self, prio):
        n = 5
        keys = heap_keys(None if prio is None else np.asarray(prio), n)
        assert keys.dtype == np.int64 and (keys % n).tolist() == list(range(n))
        want = sorted(range(n), key=lambda v: (0.0 if prio is None else prio[v], v))
        assert np.argsort(keys).tolist() == want

    def test_integer_priorities_keep_their_encoding(self):
        prio = np.array([3.0, -2.0, 1e9])
        assert heap_keys(prio, 3).tolist() == [9, -5, 3 * 10**9 + 2]


class TestFastLevelMode:
    @pytest.mark.parametrize("meshname,scheme", [
        ("cube8", "dd"), ("cube8", "step"), ("disk", "step"),
        ("warped", "step"),
    ])
    def test_matches_fast_mode(self, meshname, scheme, request):
        mesh = request.getfixturevalue(meshname)
        pset = PatchSet.single_patch(mesh)
        mm = MaterialMap.uniform(
            Material.isotropic(1.0, 0.4, groups=2), mesh.num_cells
        )
        s = SnSolver(
            pset, level_symmetric(2), mm,
            np.ones((mesh.num_cells, 2)), scheme=scheme,
        )
        pf, lf, _ = s.sweep_once(mode="fast")
        pl, ll, _ = s.sweep_once(mode="fast-level")
        np.testing.assert_allclose(pl, pf, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(ll, lf, rtol=1e-12)

    def test_source_iteration_fast_level(self, cube8):
        pset = PatchSet.single_patch(cube8)
        mm = MaterialMap.uniform(Material.isotropic(1.0, 0.6), cube8.num_cells)
        s = SnSolver(pset, level_symmetric(2), mm,
                     np.ones((cube8.num_cells, 1)))
        r1 = s.source_iteration(tol=1e-8, mode="fast")
        r2 = s.source_iteration(tol=1e-8, mode="fast-level")
        assert r1.iterations == r2.iterations
        np.testing.assert_allclose(r2.phi, r1.phi, rtol=1e-10)

    def test_dd_fixup_active_in_level_mode(self):
        """The set-to-zero fixup must clamp in the vectorized path too."""
        from repro.mesh import box_structured

        mesh = box_structured((20, 4, 4), (20.0, 4.0, 4.0))
        ids = (mesh.cell_centers()[:, 0] > 3.0).astype(np.int64)
        mesh.materials = ids.reshape(mesh.shape)
        mats = {0: Material.isotropic(5.0, 0.0), 1: Material.isotropic(0.01)}
        q = np.zeros((mesh.num_cells, 1))
        q[ids == 0] = 10.0
        pset = PatchSet.single_patch(mesh)
        s = SnSolver(pset, level_symmetric(4), MaterialMap(mats, ids), q,
                     scheme="dd", fixup=True)
        phi, _, _ = s.sweep_once(mode="fast-level")
        assert phi.min() >= 0
