"""Tests for the partition package: SFC and RCB."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.mesh import cube_structured, disk_tri_mesh, reactor_mesh_2d
from repro.partition import (
    assign_patches_sfc,
    chunk_by_weight,
    decompose_unstructured,
    hilbert_decode,
    hilbert_encode,
    morton_decode,
    morton_encode,
    patchify_structured,
    rcb_partition,
    sfc_order,
)
from repro.mesh.box import box_union_covers


class TestMorton:
    def test_known_2d_values(self):
        coords = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        keys = morton_encode(coords, 1)
        assert sorted(keys.tolist()) == [0, 1, 2, 3]

    def test_roundtrip_3d(self):
        coords = np.array(list(itertools.product(range(4), repeat=3)))
        keys = morton_encode(coords, 2)
        assert len(set(keys.tolist())) == len(coords)
        np.testing.assert_array_equal(morton_decode(keys, 2, 3), coords)

    def test_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            morton_encode(np.array([[8, 0]]), 3)
        with pytest.raises(ReproError):
            morton_encode(np.array([[-1, 0]]), 3)

    def test_locality_prefix_property(self):
        """Cells in the same 2^k-aligned block share key prefixes."""
        coords = np.array(list(itertools.product(range(8), repeat=2)))
        keys = morton_encode(coords, 3)
        blocks = (coords // 4)[:, 0] * 2 + (coords // 4)[:, 1]
        for b in range(4):
            ks = np.sort(keys[blocks == b])
            assert ks.max() - ks.min() < 16  # contiguous 16-key block


class TestHilbert:
    def test_order1_2d_path(self):
        coords = hilbert_decode(np.arange(4), 1, 2)
        assert coords.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]

    @pytest.mark.parametrize("bits,dim", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_bijective(self, bits, dim):
        coords = np.array(list(itertools.product(range(2**bits), repeat=dim)))
        keys = hilbert_encode(coords, bits)
        assert len(set(keys.tolist())) == len(coords)
        np.testing.assert_array_equal(hilbert_decode(keys, bits, dim), coords)

    @pytest.mark.parametrize("bits,dim", [(3, 2), (2, 3), (3, 3)])
    def test_unit_steps(self, bits, dim):
        """Consecutive Hilbert keys differ by exactly one lattice step."""
        n = 2**bits
        coords = np.array(list(itertools.product(range(n), repeat=dim)))
        keys = hilbert_encode(coords, bits)
        seq = coords[np.argsort(keys)]
        steps = np.abs(np.diff(seq, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_better_locality_than_morton(self):
        """Mean jump distance along Hilbert <= along Morton."""
        n = 16
        coords = np.array(list(itertools.product(range(n), repeat=2)))
        hk = hilbert_encode(coords, 4)
        mk = morton_encode(coords, 4)
        hj = np.abs(np.diff(coords[np.argsort(hk)], axis=0)).sum(axis=1).mean()
        mj = np.abs(np.diff(coords[np.argsort(mk)], axis=0)).sum(axis=1).mean()
        assert hj < mj


class TestChunking:
    def test_equal_weights_balanced(self):
        w = np.ones(10)
        part = chunk_by_weight(np.arange(10), w, 3)
        counts = np.bincount(part)
        assert counts.min() >= 3 and counts.max() <= 4

    def test_all_parts_nonempty_when_n_equals_parts(self):
        part = chunk_by_weight(np.arange(4), np.ones(4), 4)
        assert sorted(part.tolist()) == [0, 1, 2, 3]

    def test_weighted_balance(self):
        w = np.array([10.0, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        part = chunk_by_weight(np.arange(10), w, 2)
        s0 = w[part == 0].sum()
        s1 = w[part == 1].sum()
        assert abs(s0 - s1) <= 10.0  # no better split exists than +-the big item

    def test_zero_weights_fall_back_to_counts(self):
        part = chunk_by_weight(np.arange(9), np.zeros(9), 3)
        assert np.bincount(part).tolist() == [3, 3, 3]

    def test_too_many_parts_rejected(self):
        with pytest.raises(ReproError):
            chunk_by_weight(np.arange(3), np.ones(3), 4)

    def test_contiguous_in_order(self):
        order = np.random.default_rng(0).permutation(20)
        part = chunk_by_weight(order, np.ones(20), 4)
        seq = part[order]
        assert np.all(np.diff(seq) >= 0)  # part ids non-decreasing along order


@given(
    n=st.integers(4, 60),
    nparts=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_chunk_by_weight_properties(n, nparts, seed):
    if nparts > n:
        return
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 5.0, n)
    order = rng.permutation(n)
    part = chunk_by_weight(order, w, nparts)
    counts = np.bincount(part, minlength=nparts)
    assert np.all(counts > 0)
    assert part.min() == 0 and part.max() == nparts - 1


class TestRCB:
    def test_balance_unit_weights(self):
        pts = np.random.default_rng(1).random((100, 3))
        part = rcb_partition(pts, 8)
        counts = np.bincount(part)
        assert counts.min() >= 100 // 8 - 1

    def test_non_power_of_two(self):
        pts = np.random.default_rng(2).random((90, 2))
        part = rcb_partition(pts, 5)
        counts = np.bincount(part, minlength=5)
        assert np.all(counts > 0)
        assert counts.max() - counts.min() <= 3

    def test_weighted_balance(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 2))
        w = rng.uniform(0.5, 2.0, 200)
        part = rcb_partition(pts, 4, weights=w)
        sums = np.bincount(part, weights=w)
        assert sums.max() / sums.min() < 1.6

    def test_spatial_compactness(self):
        """RCB parts are axis-aligned slabs: disjoint bounding boxes
        along the first cut axis for a 1-D point cloud."""
        pts = np.stack([np.linspace(0, 1, 64), np.zeros(64)], axis=1)
        part = rcb_partition(pts, 4)
        maxes = [pts[part == p, 0].max() for p in range(4)]
        mins = [pts[part == p, 0].min() for p in range(4)]
        order = np.argsort(mins)
        for a, b in zip(order[:-1], order[1:]):
            assert maxes[a] <= mins[b] + 1e-12

    def test_errors(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ReproError):
            rcb_partition(pts, 0)
        with pytest.raises(ReproError):
            rcb_partition(pts, 5)
        with pytest.raises(ReproError):
            rcb_partition(pts, 2, weights=np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_weights_must_be_finite_and_non_negative(self, bad):
        """Unrefused, NaN weights split a 226-cell disk into parts of
        1, 1, 1 and 223 cells."""
        pts = disk_tri_mesh(6).cell_centroids
        w = np.ones(len(pts))
        w[::2] = bad
        with pytest.raises(ReproError, match="finite and non-negative"):
            rcb_partition(pts, 4, weights=w)
        with pytest.raises(ReproError, match="finite and non-negative"):
            rcb_partition(pts, 4, weights=np.full(len(pts), bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_points_must_be_finite(self, bad):
        pts = disk_tri_mesh(6).cell_centroids.copy()
        pts[3, 1] = bad
        with pytest.raises(ReproError, match="points must be finite"):
            rcb_partition(pts, 4)


@given(
    n=st.integers(8, 120),
    nparts=st.integers(1, 8),
    dim=st.integers(2, 3),
    seed=st.integers(0, 1000),
)
@settings(max_examples=50, deadline=None)
def test_rcb_covers_all_points(n, nparts, dim, seed):
    if nparts > n:
        return
    pts = np.random.default_rng(seed).random((n, dim))
    part = rcb_partition(pts, nparts)
    assert part.shape == (n,)
    counts = np.bincount(part, minlength=nparts)
    assert np.all(counts > 0)
    assert counts.sum() == n


class TestStructuredDecomposition:
    def test_patchify_covers(self):
        mesh = cube_structured(10)
        boxes = patchify_structured(mesh, (4, 4, 4))
        assert box_union_covers(boxes, mesh.domain_box)

    def test_assign_balances_cells(self):
        mesh = cube_structured(12)
        boxes = patchify_structured(mesh, (3, 3, 3))
        procs = assign_patches_sfc(boxes, 4)
        loads = np.zeros(4)
        for b, p in zip(boxes, procs):
            loads[p] += b.size
        assert loads.max() / loads.min() < 1.3

    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    def test_both_curves_work(self, curve):
        mesh = cube_structured(8)
        boxes = patchify_structured(mesh, (4, 4, 4))
        procs = assign_patches_sfc(boxes, 2, curve=curve)
        assert set(procs.tolist()) == {0, 1}

    def test_rank_mismatch(self):
        mesh = cube_structured(8)
        with pytest.raises(ReproError):
            patchify_structured(mesh, (4, 4))


class TestUnstructuredDecomposition:
    def test_covers_cells_and_procs(self):
        mesh = reactor_mesh_2d(12)
        dec = decompose_unstructured(mesh, 80, 3)
        sizes = np.bincount(dec.cell_patch)
        assert np.all(sizes > 0)
        assert sizes.sum() == mesh.num_cells
        assert set(dec.patch_proc.tolist()) == {0, 1, 2}

    def test_patch_size_respected(self):
        mesh = reactor_mesh_2d(12)
        dec = decompose_unstructured(mesh, 50, 2)
        sizes = np.bincount(dec.cell_patch)
        assert sizes.max() <= 2 * 50

    def test_more_procs_than_patches_rejected(self):
        mesh = reactor_mesh_2d(12)
        # patch_size so big there is 1 patch per proc minimum; nprocs
        # drives patch count up, which must stay feasible.
        dec = decompose_unstructured(mesh, mesh.num_cells, 4)
        assert dec.num_patches >= 4

    @pytest.mark.parametrize(
        "size, nprocs, name",
        [(2.5, 2, "patch_size=2.5"), (50, 0, "nprocs=0"),
         (0, 2, "patch_size=0"), (50, 1.5, "nprocs=1.5")],
    )
    def test_counts_refused_where_they_enter(self, size, nprocs, name):
        """Unrefused, a fractional patch size raises a bare TypeError in
        ``np.zeros`` and ``nprocs=0`` surfaces as RCB's ``nparts``."""
        with pytest.raises(ReproError, match=re.escape(name)):
            decompose_unstructured(disk_tri_mesh(6), size, nprocs)

    def test_sfc_order_on_centroid_lattice(self):
        pts = np.array(list(itertools.product(range(4), repeat=2)))
        order = sfc_order(pts, curve="hilbert")
        assert sorted(order.tolist()) == list(range(16))
