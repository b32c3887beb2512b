"""Patches and patch sets - the JAxMIN mesh-management analogue.

A *patch* is a well-defined subdomain of the mesh (Sec. II-B of the
paper): a contiguous collection of cells with complete knowledge of its
own mesh entities.  Its neighbourhood is the faces it shares with other
patches, read from the interface table (:mod:`.connectivity`).  A
:class:`PatchSet` is the global decomposition: every cell belongs to
exactly one patch; :meth:`PatchSet.assign` maps patches to processes
per run, so one patch set serves every process count.

Both mesh families share one representation here: a patch stores the
*global linear cell ids* it owns (for structured meshes these are the
C-order ids of its box).  This uniformity is what lets the sweep
component treat structured and unstructured meshes identically, which
is the point of the patch abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ReproError, check_count
from ..mesh.box import Box
from ..mesh.structured import StructuredMesh
from ..mesh.unstructured import UnstructuredMesh
from ..partition.structured import assign_patches_sfc, patchify_structured
from ..partition.unstructured import assign_patches_rcb, decompose_unstructured

__all__ = ["Patch", "PatchSet"]


@dataclass
class Patch:
    """One mesh subdomain: globally-indexed cells."""

    id: int
    cells: np.ndarray  # global linear cell ids, local order = array order
    box: Box | None = None  # set for structured patches

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Patch(id={self.id}, cells={self.num_cells})"


@dataclass
class PatchSet:
    """Global patch decomposition of a mesh."""

    mesh: StructuredMesh | UnstructuredMesh
    patches: list[Patch]
    cell_patch: np.ndarray  # (num_cells,) patch id per global cell
    cell_local: np.ndarray  # (num_cells,) local index within owning patch
    patch_proc: np.ndarray  # assign(nprocs) for the nprocs the set was built for

    @property
    def num_patches(self) -> int:
        return len(self.patches)

    @property
    def num_procs(self) -> int:
        return int(self.patch_proc.max()) + 1

    def assign(self, nprocs: int) -> np.ndarray:
        """Patch -> process map for a run on ``nprocs`` processes.

        Structured patches are cut along a Hilbert curve over their
        boxes; unstructured ones by RCB over patch centroids weighted by
        cell count.  Every process gets at least one patch.
        """
        check_count("nprocs", nprocs, "process count")
        if nprocs > self.num_patches:
            raise ReproError(
                f"{nprocs} procs but only {self.num_patches} patches; "
                "shrink the patches or the procs"
            )
        if isinstance(self.mesh, StructuredMesh):
            return assign_patches_sfc([p.box for p in self.patches if p.box is not None], nprocs)
        return assign_patches_rcb(self.mesh, self.cell_patch, nprocs)

    def validate(self) -> None:
        """Check the patch cover: every cell in exactly one patch."""
        seen = np.zeros(self.mesh.num_cells, dtype=np.int64)
        for p in self.patches:
            seen[p.cells] += 1
            if not np.all(self.cell_patch[p.cells] == p.id):
                raise ReproError(f"cell_patch inconsistent for patch {p.id}")
            if not np.all(
                self.cell_local[p.cells] == np.arange(p.num_cells)
            ):
                raise ReproError(f"cell_local inconsistent for patch {p.id}")
        if not np.all(seen == 1):
            raise ReproError("patches do not cover the mesh exactly once")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_structured(
        cls,
        mesh: StructuredMesh,
        patch_shape: tuple[int, ...],
        nprocs: int = 1,
    ) -> "PatchSet":
        """JAxMIN-style structured decomposition (fixed boxes + SFC ranks)."""
        for i, s in enumerate(patch_shape):
            check_count(f"patch_shape[{i}]", s, "patch extent")
        domain = mesh.domain_box
        cell_patch = np.empty(mesh.num_cells, dtype=np.int64)
        cell_local = np.empty(mesh.num_cells, dtype=np.int64)
        patches = []
        for pid, b in enumerate(patchify_structured(mesh, patch_shape)):
            idx = b.all_indices()
            # Global C-order linear ids of the patch cells.
            lin = np.ravel_multi_index(idx.T, domain.shape)
            patches.append(Patch(id=pid, cells=lin, box=b))
            cell_patch[lin] = pid
            cell_local[lin] = np.arange(len(lin))
        pset = cls(mesh, patches, cell_patch, cell_local, np.zeros(0, np.int64))
        pset.patch_proc = pset.assign(nprocs)
        return pset

    @classmethod
    def from_unstructured(
        cls,
        mesh: UnstructuredMesh,
        patch_size: int,
        nprocs: int = 1,
    ) -> "PatchSet":
        """JSNT-U-style decomposition into ~``patch_size``-cell patches."""
        dec = decompose_unstructured(mesh, patch_size, nprocs)
        cell_patch = dec.cell_patch
        cell_local = np.empty(mesh.num_cells, dtype=np.int64)
        patches = []
        for pid in range(dec.num_patches):
            cells = np.nonzero(cell_patch == pid)[0]
            patches.append(Patch(id=pid, cells=cells))
            cell_local[cells] = np.arange(len(cells))
        return cls(mesh, patches, cell_patch, cell_local, dec.patch_proc)

    @classmethod
    def single_patch(cls, mesh) -> "PatchSet":
        """Whole mesh as one patch on one process (serial reference)."""
        cells = np.arange(mesh.num_cells, dtype=np.int64)
        box = mesh.domain_box if isinstance(mesh, StructuredMesh) else None
        patch = Patch(id=0, cells=cells, box=box)
        return cls(
            mesh,
            [patch],
            np.zeros(mesh.num_cells, dtype=np.int64),
            cells.copy(),
            np.zeros(1, dtype=np.int64),
        )
