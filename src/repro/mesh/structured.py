"""Structured (regular Cartesian) meshes.

A :class:`StructuredMesh` is a regular grid of cells described by its
``shape`` (cells per axis), ``spacing`` (cell widths) and ``origin``.
It plays the role of JASMIN's structured mesh layer: the domain of a
JSNT-S-style Sn solver and the substrate for KBA baselines.

Cells are addressed either by multi-index ``(i, j, k)`` or by the
C-order linear index over the whole domain box.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from .._util import ReproError, prod
from .box import Box

__all__ = ["StructuredMesh"]


@dataclass
class StructuredMesh:
    """Regular Cartesian mesh in 2 or 3 dimensions."""

    shape: tuple[int, ...]
    spacing: tuple[float, ...] = ()
    origin: tuple[float, ...] = ()
    materials: np.ndarray | None = None

    def __post_init__(self):
        self.shape = tuple(int(n) for n in self.shape)
        if not self.shape or any(n <= 0 for n in self.shape):
            raise ReproError(f"invalid mesh shape {self.shape}")
        nd = len(self.shape)
        if nd not in (2, 3):
            raise ReproError("structured meshes must be 2-D or 3-D")
        if not self.spacing:
            self.spacing = (1.0,) * nd
        if not self.origin:
            self.origin = (0.0,) * nd
        self.spacing = tuple(float(s) for s in self.spacing)
        self.origin = tuple(float(o) for o in self.origin)
        if len(self.spacing) != nd or len(self.origin) != nd:
            raise ReproError("spacing/origin rank mismatch")
        if any(s <= 0 for s in self.spacing):
            raise ReproError("spacing must be positive")
        if self.materials is None:
            self.materials = np.zeros(self.shape, dtype=np.int64)
        else:
            self.materials = np.asarray(self.materials, dtype=np.int64)
            if self.materials.shape != self.shape:
                raise ReproError("materials shape mismatch")

    # -- basic properties --------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_cells(self) -> int:
        return prod(self.shape)

    @property
    def domain_box(self) -> Box:
        return Box((0,) * self.ndim, self.shape)

    @property
    def cell_volume(self) -> float:
        return prod_f(self.spacing)

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(n * s for n, s in zip(self.shape, self.spacing))

    def face_area(self, axis: int) -> float:
        """Area of a cell face orthogonal to ``axis``."""
        return prod_f(s for i, s in enumerate(self.spacing) if i != axis)

    # -- indexing ----------------------------------------------------------

    def linear_index(self, idx: Sequence[int]) -> int:
        return self.domain_box.linear_index(idx)

    def multi_index(self, lin: int) -> tuple[int, ...]:
        return self.domain_box.multi_index(lin)

    def cell_centers(self) -> np.ndarray:
        """(num_cells, ndim) array of cell centers in C order."""
        axes = [
            self.origin[d] + (np.arange(self.shape[d]) + 0.5) * self.spacing[d]
            for d in range(self.ndim)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    # -- materials ----------------------------------------------------------

    def assign_materials(
        self, fn: Callable[[np.ndarray], np.ndarray]
    ) -> None:
        """Set material ids from ``fn(centers) -> ids`` over cell centers."""
        ids = np.asarray(fn(self.cell_centers()), dtype=np.int64)
        if ids.shape != (self.num_cells,):
            raise ReproError("material function must return one id per cell")
        self.materials = ids.reshape(self.shape)

    def material_flat(self) -> np.ndarray:
        return self.materials.reshape(-1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StructuredMesh(shape={self.shape}, spacing={self.spacing}, "
            f"cells={self.num_cells})"
        )


def prod_f(seq) -> float:
    out = 1.0
    for s in seq:
        out *= float(s)
    return out
