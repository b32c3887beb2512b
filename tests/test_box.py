"""Unit tests for repro.mesh.box."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.mesh.box import Box, box_union_covers, split_box


class TestBoxBasics:
    def test_shape_and_size(self):
        b = Box((1, 2, 3), (4, 6, 9))
        assert b.shape == (3, 4, 6)
        assert b.size == 72
        assert b.ndim == 3

    def test_empty_box(self):
        b = Box((0, 0), (0, 5))
        assert b.is_empty()
        assert b.size == 0

    def test_degenerate_raises(self):
        with pytest.raises(ReproError):
            Box((2, 0), (1, 5))

    def test_rank_mismatch_raises(self):
        with pytest.raises(ReproError):
            Box((0, 0), (1, 1, 1))

    def test_contains(self):
        b = Box((0, 0), (3, 3))
        assert b.contains((0, 0))
        assert b.contains((2, 2))
        assert not b.contains((3, 0))
        assert not b.contains((-1, 0))

    def test_frozen(self):
        b = Box((0,), (1,))
        with pytest.raises(Exception):
            b.lo = (5,)


class TestBoxOps:
    def test_intersection(self):
        a = Box((0, 0), (5, 5))
        b = Box((3, 3), (8, 8))
        assert a.intersection(b) == Box((3, 3), (5, 5))

    def test_disjoint_intersection_is_empty(self):
        a = Box((0, 0), (2, 2))
        b = Box((5, 5), (8, 8))
        assert a.intersection(b).is_empty()

    def test_shift(self):
        assert Box((0, 0), (2, 2)).shift((3, -1)) == Box((3, -1), (5, 1))

    def test_grow_scalar_and_clip(self):
        b = Box((2, 2), (4, 4)).grow(1)
        assert b == Box((1, 1), (5, 5))
        assert b.intersection(Box((0, 0), (4, 4))) == Box((1, 1), (4, 4))

    def test_grow_per_axis(self):
        assert Box((2, 2), (4, 4)).grow((0, 2)) == Box((2, 0), (4, 6))


class TestBoxIndexing:
    def test_linear_index_roundtrip(self):
        b = Box((1, 2, 3), (4, 5, 7))
        for lin, idx in enumerate(b.cells()):
            assert b.linear_index(idx) == lin
            assert b.multi_index(lin) == idx

    def test_all_indices_matches_cells(self):
        b = Box((0, 1), (3, 4))
        arr = b.all_indices()
        assert arr.shape == (9, 2)
        assert [tuple(r) for r in arr] == list(b.cells())

    def test_slices_relative(self):
        outer = Box((0, 0), (10, 10))
        inner = Box((2, 3), (5, 7))
        a = np.zeros(outer.shape)
        a[inner.slices(outer)] = 1
        assert a.sum() == inner.size


class TestSplitBox:
    def test_exact_tiling(self):
        b = Box((0, 0, 0), (8, 8, 8))
        parts = split_box(b, (4, 4, 4))
        assert len(parts) == 8
        assert box_union_covers(parts, b)

    def test_ragged_tiling(self):
        b = Box((0, 0), (7, 5))
        parts = split_box(b, (3, 2))
        assert box_union_covers(parts, b)
        assert sum(p.size for p in parts) == b.size

    def test_patch_bigger_than_box(self):
        b = Box((0,), (3,))
        assert split_box(b, (10,)) == [b]

    def test_bad_patch_shape(self):
        with pytest.raises(ReproError):
            split_box(Box((0,), (3,)), (0,))
        with pytest.raises(ReproError):
            split_box(Box((0, 0), (3, 3)), (2,))


@given(
    lo=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    patch=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
@settings(max_examples=60, deadline=None)
def test_split_box_always_tiles(lo, shape, patch):
    b = Box(lo, tuple(l + s for l, s in zip(lo, shape)))
    parts = split_box(b, patch)
    assert box_union_covers(parts, b)


@given(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
)
@settings(max_examples=60, deadline=None)
def test_linear_multi_roundtrip_property(lo, shape):
    b = Box(lo, tuple(l + s for l, s in zip(lo, shape)))
    for lin in range(b.size):
        assert b.linear_index(b.multi_index(lin)) == lin
