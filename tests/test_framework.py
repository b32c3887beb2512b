"""Tests for the patch framework: patch sets and connectivity tables."""

import re

import numpy as np
import pytest

from repro._util import ReproError
from repro.framework import PatchSet, build_boundary, build_interfaces
from repro.mesh import cube_structured


class TestPatchSet:
    def test_structured_cover(self, cube8_patches):
        cube8_patches.validate()
        assert cube8_patches.num_patches == 8
        assert cube8_patches.num_procs == 2

    def test_unstructured_cover(self, disk_patches):
        disk_patches.validate()
        total = sum(p.num_cells for p in disk_patches.patches)
        assert total == disk_patches.mesh.num_cells

    def test_single_patch(self, cube8):
        ps = PatchSet.single_patch(cube8)
        ps.validate()
        assert ps.num_patches == 1
        assert ps.patches[0].box is not None

    def test_structured_local_order_is_box_order(self, cube8_patches):
        p = cube8_patches.patches[0]
        lin = np.ravel_multi_index(
            p.box.all_indices().T, cube8_patches.mesh.shape
        )
        np.testing.assert_array_equal(p.cells, lin)

    def test_too_many_procs_rejected(self, cube8):
        with pytest.raises(ReproError):
            PatchSet.from_structured(cube8, (8, 8, 8), nprocs=2)

    @pytest.mark.parametrize(
        "shape, nprocs, name",
        [
            ((4, 4, 4), 2.5, "nprocs=2.5"),
            ((4, 4, 4), True, "nprocs=True"),
            ((4, 4.0, 4), 2, "patch_shape[1]=4.0"),
            ((4, 4, True), 2, "patch_shape[2]=True"),
        ],
    )
    def test_structured_counts_must_be_positive_integers(
        self, cube8, shape, nprocs, name
    ):
        """Unrefused, nprocs=2.5 builds 3 procs and nprocs=True one."""
        with pytest.raises(ReproError, match=re.escape(name)):
            PatchSet.from_structured(cube8, shape, nprocs=nprocs)

    @pytest.mark.parametrize(
        "size, nprocs, name",
        [
            (50, 2.5, "nprocs=2.5"),
            (50, True, "nprocs=True"),
            (50.0, 2, "patch_size=50.0"),
            (1.5, 2, "patch_size=1.5"),
        ],
    )
    def test_unstructured_counts_must_be_positive_integers(
        self, disk, size, nprocs, name
    ):
        """Unrefused, a fractional nprocs divides by zero and a float
        patch_size raises a bare TypeError in the partitioner."""
        with pytest.raises(ReproError, match=re.escape(name)):
            PatchSet.from_unstructured(disk, size, nprocs=nprocs)

    def test_numpy_integer_counts_pass(self, cube8, disk):
        ps = PatchSet.from_structured(
            cube8, tuple(np.int64(4) for _ in range(3)), nprocs=np.int64(2)
        )
        assert ps.num_procs == 2
        ps = PatchSet.from_unstructured(disk, np.int32(50), nprocs=np.int64(2))
        assert ps.num_procs == 2

    def test_unstructured_validates(self, disk):
        ps = PatchSet.from_unstructured(disk, 50, nprocs=2)
        ps.validate()


class TestInterfaces:
    def test_structured_counts(self, cube8):
        it = build_interfaces(cube8)
        n = 8
        assert it.num_interfaces == 3 * n * n * (n - 1)
        bt = build_boundary(cube8)
        assert bt.num_faces == 6 * n * n

    def test_structured_areas(self):
        mesh = cube_structured(4, length=2.0)  # h = 0.5
        it = build_interfaces(mesh)
        np.testing.assert_allclose(it.area, 0.25)

    def test_structured_normals_axis_aligned(self, cube8):
        it = build_interfaces(cube8)
        np.testing.assert_allclose(np.abs(it.normal).max(axis=1), 1.0)

    def test_unstructured_matches_mesh_faces(self, disk):
        it = build_interfaces(disk)
        interior = (disk.face_cells[:, 1] >= 0).sum()
        assert it.num_interfaces == interior
        bt = build_boundary(disk)
        assert bt.num_faces == len(disk.boundary_faces)

    def test_boundary_centroids_on_boundary(self, cube8):
        bt = build_boundary(cube8)
        L = 4.0
        on_face = (
            (np.abs(bt.centroid) < 1e-12) | (np.abs(bt.centroid - L) < 1e-12)
        ).any(axis=1)
        assert np.all(on_face)

    def test_interfaces_reference_adjacent_cells(self, cube8):
        it = build_interfaces(cube8)
        mi_a = np.array(np.unravel_index(it.cell_a, cube8.shape)).T
        mi_b = np.array(np.unravel_index(it.cell_b, cube8.shape)).T
        assert np.all(np.abs(mi_a - mi_b).sum(axis=1) == 1)

