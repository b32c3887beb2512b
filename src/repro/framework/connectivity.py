"""Mesh and patch connectivity tables.

Provides a mesh-family-independent *interface table*: one row per
interior face with the two adjacent global cells, the unit normal
(oriented a -> b) and the face area.  Structured and unstructured
meshes reduce to the same table, which is what allows one sweep-DAG
builder and one set of transport kernels to serve both - the crux of
the patch abstraction's "hide the mesh family" promise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ReproError
from ..mesh.structured import StructuredMesh
from ..mesh.unstructured import UnstructuredMesh

__all__ = [
    "InterfaceTable",
    "BoundaryTable",
    "build_interfaces",
    "build_boundary",
]


@dataclass
class InterfaceTable:
    """All interior faces: ``cell_a`` -> ``cell_b`` with oriented normals."""

    cell_a: np.ndarray  # (n,) global cell ids
    cell_b: np.ndarray  # (n,)
    normal: np.ndarray  # (n, dim) unit normal pointing a -> b
    area: np.ndarray  # (n,)
    face_id: np.ndarray | None = None  # unstructured face ids (None: structured)

    @property
    def num_interfaces(self) -> int:
        return len(self.cell_a)


@dataclass
class BoundaryTable:
    """All boundary faces: owning cell, outward normal and centroid."""

    cell: np.ndarray
    normal: np.ndarray
    area: np.ndarray
    centroid: np.ndarray | None = None
    face_id: np.ndarray | None = None

    @property
    def num_faces(self) -> int:
        return len(self.cell)


def build_interfaces(mesh) -> InterfaceTable:
    """Interface table for a structured or unstructured mesh."""
    if isinstance(mesh, StructuredMesh):
        return _structured_interfaces(mesh)
    if isinstance(mesh, UnstructuredMesh):
        return _unstructured_interfaces(mesh)
    raise ReproError(f"unsupported mesh type {type(mesh)!r}")


def build_boundary(mesh) -> BoundaryTable:
    """Boundary-face table for a structured or unstructured mesh."""
    if isinstance(mesh, StructuredMesh):
        return _structured_boundary(mesh)
    if isinstance(mesh, UnstructuredMesh):
        return _unstructured_boundary(mesh)
    raise ReproError(f"unsupported mesh type {type(mesh)!r}")


# -- structured ------------------------------------------------------------------


def _axis_cells(shape, ax, lo_slice) -> np.ndarray:
    idx = [np.arange(n) for n in shape]
    idx[ax] = np.arange(shape[ax] - 1) if lo_slice else np.arange(1, shape[ax])
    grids = np.meshgrid(*idx, indexing="ij")
    multi = np.stack([g.ravel() for g in grids], axis=0)
    return np.ravel_multi_index(multi, shape)


def _structured_interfaces(mesh: StructuredMesh) -> InterfaceTable:
    nd = mesh.ndim
    a_list, b_list, n_list, area_list = [], [], [], []
    for ax in range(nd):
        if mesh.shape[ax] < 2:
            continue
        a = _axis_cells(mesh.shape, ax, True)
        b = _axis_cells(mesh.shape, ax, False)
        a_list.append(a)
        b_list.append(b)
        n = np.zeros((len(a), nd))
        n[:, ax] = 1.0
        n_list.append(n)
        area_list.append(np.full(len(a), mesh.face_area(ax)))
    if not a_list:
        return InterfaceTable(
            cell_a=np.zeros(0, dtype=np.int64),
            cell_b=np.zeros(0, dtype=np.int64),
            normal=np.zeros((0, nd)),
            area=np.zeros(0),
        )
    return InterfaceTable(
        cell_a=np.concatenate(a_list),
        cell_b=np.concatenate(b_list),
        normal=np.concatenate(n_list, axis=0),
        area=np.concatenate(area_list),
    )


def _structured_boundary(mesh: StructuredMesh) -> BoundaryTable:
    nd = mesh.ndim
    cells, normals, areas, cents = [], [], [], []
    for ax in range(nd):
        for side, pos in ((-1.0, 0), (1.0, mesh.shape[ax] - 1)):
            idx = [np.arange(n) for n in mesh.shape]
            idx[ax] = np.array([pos])
            grids = np.meshgrid(*idx, indexing="ij")
            multi = np.stack([g.ravel() for g in grids], axis=0)
            lin = np.ravel_multi_index(multi, mesh.shape)
            cells.append(lin)
            n = np.zeros((len(lin), nd))
            n[:, ax] = side
            normals.append(n)
            areas.append(np.full(len(lin), mesh.face_area(ax)))
            # Face centroid: the cell centre pushed to the face plane.
            c = np.stack(
                [
                    mesh.origin[d] + (multi[d] + 0.5) * mesh.spacing[d]
                    for d in range(nd)
                ],
                axis=1,
            )
            c[:, ax] += side * 0.5 * mesh.spacing[ax]
            cents.append(c)
    return BoundaryTable(
        cell=np.concatenate(cells),
        normal=np.concatenate(normals, axis=0),
        area=np.concatenate(areas),
        centroid=np.concatenate(cents, axis=0),
    )


# -- unstructured -----------------------------------------------------------------


def _unstructured_interfaces(mesh: UnstructuredMesh) -> InterfaceTable:
    interior = np.nonzero(mesh.face_cells[:, 1] >= 0)[0]
    return InterfaceTable(
        cell_a=mesh.face_cells[interior, 0].copy(),
        cell_b=mesh.face_cells[interior, 1].copy(),
        normal=mesh.face_normals[interior].copy(),
        area=mesh.face_areas[interior].copy(),
        face_id=interior,
    )


def _unstructured_boundary(mesh: UnstructuredMesh) -> BoundaryTable:
    bnd = mesh.boundary_faces
    return BoundaryTable(
        cell=mesh.face_cells[bnd, 0].copy(),
        normal=mesh.face_normals[bnd].copy(),
        area=mesh.face_areas[bnd].copy(),
        centroid=mesh.face_centroids[bnd].copy(),
        face_id=bnd,
    )

