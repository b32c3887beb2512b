"""Unstructured-mesh decomposition: cells -> patches -> ranks.

The paper's JSNT-U experiments decompose unstructured meshes into
patches of roughly ``patch_size`` cells (default 500) and distribute
patches across processes.  This module provides that two-level
decomposition with recursive coordinate bisection at both levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ReproError, check_count
from ..mesh.unstructured import UnstructuredMesh
from .rcb import rcb_partition

__all__ = ["UnstructuredDecomposition", "assign_patches_rcb", "decompose_unstructured"]


@dataclass
class UnstructuredDecomposition:
    """Result of a two-level unstructured decomposition.

    ``cell_patch[c]`` is the patch id of cell ``c``; ``patch_proc[p]``
    the rank owning patch ``p``.
    """

    cell_patch: np.ndarray
    patch_proc: np.ndarray

    @property
    def num_patches(self) -> int:
        return len(self.patch_proc)


def decompose_unstructured(
    mesh: UnstructuredMesh,
    patch_size: int,
    nprocs: int,
) -> UnstructuredDecomposition:
    """Cut ``mesh`` into patches of about ``patch_size`` cells on ``nprocs``.

    Cells are cut into patches by RCB over cell centroids.  Patches are
    then distributed to ranks with RCB over patch centroids, which
    keeps each rank's patches spatially compact the way SFC assignment
    does for structured meshes.
    """
    check_count("nprocs", nprocs, "process count")
    check_count("patch_size", patch_size, "patch size")
    ncells = mesh.num_cells
    npatches = max(nprocs, (ncells + patch_size - 1) // patch_size)
    if npatches > ncells:
        raise ReproError(
            f"mesh of {ncells} cells cannot host {npatches} non-empty patches"
        )

    cell_patch = rcb_partition(mesh.cell_centroids, npatches)
    patch_proc = assign_patches_rcb(mesh, cell_patch, nprocs)
    return UnstructuredDecomposition(cell_patch=cell_patch, patch_proc=patch_proc)


def assign_patches_rcb(
    mesh: UnstructuredMesh, cell_patch: np.ndarray, nprocs: int
) -> np.ndarray:
    """Assign patches to ``nprocs`` ranks by RCB over patch centroids,
    weighted by patch cell count."""
    npatches = int(cell_patch.max()) + 1
    sums = np.zeros((npatches, mesh.ndim))
    np.add.at(sums, cell_patch, mesh.cell_centroids)
    counts = np.bincount(cell_patch, minlength=npatches).astype(np.float64)
    if np.any(counts == 0):
        raise ReproError("partitioner produced an empty patch")
    return rcb_partition(sums / counts[:, None], nprocs, weights=counts)
