"""Tests for structured and unstructured meshes and their generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.mesh import (
    StructuredMesh,
    UnstructuredMesh,
    ball_tet_mesh,
    box_structured,
    cube_structured,
    cube_tet_mesh,
    disk_tri_mesh,
    reactor_mesh_2d,
    warped_quad_mesh,
)


class TestStructuredMesh:
    def test_basic_properties(self):
        m = StructuredMesh(shape=(4, 5, 6), spacing=(1.0, 2.0, 3.0))
        assert m.num_cells == 120
        assert m.cell_volume == 6.0
        assert m.lengths == (4.0, 10.0, 18.0)
        assert m.face_area(0) == 6.0
        assert m.face_area(1) == 3.0
        assert m.face_area(2) == 2.0

    def test_2d_supported(self):
        m = StructuredMesh(shape=(3, 3))
        assert m.ndim == 2
        assert m.num_cells == 9

    def test_invalid_shapes(self):
        with pytest.raises(ReproError):
            StructuredMesh(shape=(0, 3, 3))
        with pytest.raises(ReproError):
            StructuredMesh(shape=(3,))  # 1-D unsupported
        with pytest.raises(ReproError):
            StructuredMesh(shape=(3, 3), spacing=(1.0, -1.0))

    def test_indexing_roundtrip(self):
        m = StructuredMesh(shape=(3, 4, 5))
        for lin in range(m.num_cells):
            assert m.linear_index(m.multi_index(lin)) == lin

    def test_cell_centers_order_and_values(self):
        m = box_structured((2, 2), (2.0, 4.0))
        centers = m.cell_centers()
        assert centers.shape == (4, 2)
        np.testing.assert_allclose(centers[0], [0.5, 1.0])
        np.testing.assert_allclose(centers[-1], [1.5, 3.0])

    def test_assign_materials(self):
        m = cube_structured(4)
        m.assign_materials(lambda c: (c[:, 0] > 0.5).astype(int))
        assert set(np.unique(m.materials)) == {0, 1}
        assert m.materials.shape == (4, 4, 4)

    def test_material_shape_mismatch(self):
        with pytest.raises(ReproError):
            StructuredMesh(shape=(2, 2), materials=np.zeros((3, 3)))


class TestUnstructuredInvariants:
    """Invariants every conforming mesh must satisfy."""

    @pytest.fixture(params=["disk", "ball", "reactor", "warped", "kuhn_cube"])
    def mesh(self, request):
        return request.getfixturevalue(request.param)

    def test_positive_volumes(self, mesh):
        assert np.all(mesh.cell_volumes > 0)

    def test_interior_faces_have_two_cells(self, mesh):
        fc = mesh.face_cells
        interior = fc[:, 1] >= 0
        assert np.all(fc[interior, 0] != fc[interior, 1])
        assert np.all(fc[:, 0] >= 0)

    def test_face_normals_unit(self, mesh):
        np.testing.assert_allclose(
            np.linalg.norm(mesh.face_normals, axis=1), 1.0, atol=1e-9
        )

    def test_normal_orientation(self, mesh):
        """Normals must point from face_cells[0] toward face_cells[1]."""
        away = mesh.face_centroids - mesh.cell_centroids[mesh.face_cells[:, 0]]
        dots = np.einsum("ij,ij->i", mesh.face_normals, away)
        assert np.all(dots > 0)

    def test_cell_faces_consistent(self, mesh):
        for c in range(0, mesh.num_cells, max(1, mesh.num_cells // 50)):
            for lf in range(mesh.faces_per_cell):
                fid = mesh.cell_faces[c, lf]
                assert c in mesh.face_cells[fid]

    def test_neighbors_symmetric(self, mesh):
        for c in range(0, mesh.num_cells, max(1, mesh.num_cells // 50)):
            for n in mesh.cell_neighbors[c]:
                if n >= 0:
                    assert c in mesh.cell_neighbors[n]

    def test_divergence_theorem(self, mesh):
        """Outward area vectors of every cell must sum to ~zero."""
        vec = (
            mesh.face_normals[mesh.cell_faces]
            * mesh.face_areas[mesh.cell_faces][..., None]
            * mesh.cell_face_signs[..., None]
        )
        closure = np.abs(vec.sum(axis=1)).max()
        scale = mesh.face_areas.mean()
        assert closure < 1e-9 * max(1.0, scale * mesh.faces_per_cell)

    def test_boundary_face_count_positive(self, mesh):
        assert len(mesh.boundary_faces) > 0


class TestGenerators:
    def test_cube_tet_volume_exact(self):
        m = cube_tet_mesh((2, 3, 4), (2.0, 3.0, 4.0))
        assert m.num_cells == 2 * 3 * 4 * 6
        np.testing.assert_allclose(m.total_volume(), 24.0)

    def test_cube_tet_conforming(self):
        m = cube_tet_mesh((3, 3, 3))
        # Interior faces dominate in a conforming mesh; non-conforming
        # Kuhn splits would leave many orphan boundary faces inside.
        nb = len(m.boundary_faces)
        assert nb == 6 * 9 * 2  # each cube face splits into 2 triangles

    def test_ball_volume_converges(self):
        coarse = ball_tet_mesh(5).total_volume()
        fine = ball_tet_mesh(9).total_volume()
        exact = 4.0 / 3.0 * np.pi
        assert abs(fine - exact) < abs(coarse - exact)
        assert abs(fine - exact) / exact < 0.12

    def test_ball_deterministic(self):
        a = ball_tet_mesh(5, seed=3)
        b = ball_tet_mesh(5, seed=3)
        np.testing.assert_array_equal(a.cells, b.cells)

    def test_disk_area(self):
        m = disk_tri_mesh(10)
        assert abs(m.total_volume() - np.pi) / np.pi < 0.05

    def test_reactor_materials_regions(self):
        m = reactor_mesh_2d(14)
        mats = set(np.unique(m.materials).tolist())
        assert mats == {1, 2, 3, 4}
        # Vessel cells are the outermost ring.
        rad = np.linalg.norm(m.cell_centroids, axis=1)
        assert rad[m.materials == 4].min() > rad[m.materials == 1].max() - 1e-9

    def test_warped_quad_preserves_area(self):
        m = warped_quad_mesh((12, 8), (3.0, 2.0))
        np.testing.assert_allclose(m.total_volume(), 6.0, rtol=1e-9)

    def test_warped_quad_is_actually_warped(self):
        m = warped_quad_mesh((8, 8), amplitude=0.2)
        # Interior face normals should not all be axis-aligned.
        interior = m.face_cells[:, 1] >= 0
        n = np.abs(m.face_normals[interior])
        off_axis = np.minimum(n[:, 0], n[:, 1]) > 1e-6
        assert off_axis.mean() > 0.5

    def test_generators_reject_tiny(self):
        with pytest.raises(ReproError):
            ball_tet_mesh(1)
        with pytest.raises(ReproError):
            disk_tri_mesh(1)
        with pytest.raises(ReproError):
            reactor_mesh_2d(2)

    @pytest.mark.parametrize("gen", [ball_tet_mesh, disk_tri_mesh, reactor_mesh_2d])
    @pytest.mark.parametrize("resolution", [4.5, 6.0, True])
    def test_generators_refuse_a_non_integer_resolution(self, gen, resolution):
        with pytest.raises(ReproError, match=r"mesh resolution.*resolution="):
            gen(resolution)


class TestUnstructuredValidation:
    def test_bad_cell_indices(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ReproError):
            UnstructuredMesh(pts, np.array([[0, 1, 5]]), "tri")

    def test_unknown_cell_type(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ReproError):
            UnstructuredMesh(pts, np.array([[0, 1, 2]]), "pentagon")

    def test_degenerate_cell(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
        with pytest.raises(ReproError):
            UnstructuredMesh(pts, np.array([[0, 1, 2]]), "tri")

    def test_orientation_fixed(self):
        # Clockwise triangle is silently reordered to positive area.
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        m = UnstructuredMesh(pts, np.array([[0, 1, 2]]), "tri")
        assert m.cell_volumes[0] > 0

    def test_material_length_mismatch(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ReproError):
            UnstructuredMesh(
                pts, np.array([[0, 1, 2]]), "tri", materials=np.zeros(2)
            )


@given(n=st.integers(2, 5))
@settings(max_examples=8, deadline=None)
def test_kuhn_mesh_volume_property(n):
    m = cube_tet_mesh((n, n, n), (1.0, 1.0, 1.0))
    np.testing.assert_allclose(m.total_volume(), 1.0, rtol=1e-9)
    assert m.num_cells == 6 * n**3
