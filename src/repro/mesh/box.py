"""Axis-aligned index boxes for structured meshes.

A :class:`Box` describes a rectangular region of cell indices,
``lo`` inclusive and ``hi`` exclusive, in an arbitrary number of
dimensions (the package uses 2 and 3).  Boxes are the unit of patch
description for structured meshes, mirroring the role of JAxMIN's
patch boxes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from .._util import ReproError, prod

__all__ = ["Box", "split_box", "box_union_covers"]


@dataclass(frozen=True)
class Box:
    """Half-open index box ``[lo, hi)``."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ReproError(f"lo/hi rank mismatch: {self.lo} vs {self.hi}")
        object.__setattr__(self, "lo", tuple(int(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(int(x) for x in self.hi))
        for l, h in zip(self.lo, self.hi):
            if h < l:
                raise ReproError(f"degenerate box: lo={self.lo} hi={self.hi}")

    # -- basic queries ----------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        return prod(self.shape)

    def is_empty(self) -> bool:
        return any(h == l for l, h in zip(self.lo, self.hi))

    def contains(self, idx: Sequence[int]) -> bool:
        return all(l <= i < h for i, l, h in zip(idx, self.lo, self.hi))

    # -- constructive operations ------------------------------------------

    def intersection(self, other: "Box") -> "Box":
        """Intersection box; may be empty (zero extent on some axis)."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(l, min(a, b)) for l, a, b in zip(lo, self.hi, other.hi))
        return Box(lo, hi)

    def shift(self, offset: Sequence[int]) -> "Box":
        return Box(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )

    def grow(self, n: int | Sequence[int]) -> "Box":
        """Grow by ``n`` cells on every face (per-axis if a sequence)."""
        if isinstance(n, int):
            n = (n,) * self.ndim
        return Box(
            tuple(l - g for l, g in zip(self.lo, n)),
            tuple(h + g for h, g in zip(self.hi, n)),
        )

    # -- indexing ----------------------------------------------------------

    def cells(self) -> Iterator[tuple[int, ...]]:
        """Iterate all cell multi-indices in C (last-axis-fastest) order."""
        return itertools.product(*(range(l, h) for l, h in zip(self.lo, self.hi)))

    def linear_index(self, idx: Sequence[int]) -> int:
        """C-order linear index of ``idx`` relative to this box."""
        out = 0
        for i, l, n in zip(idx, self.lo, self.shape):
            out = out * n + (int(i) - l)
        return out

    def multi_index(self, lin: int) -> tuple[int, ...]:
        """Inverse of :meth:`linear_index`."""
        shape = self.shape
        out = [0] * self.ndim
        for ax in range(self.ndim - 1, -1, -1):
            out[ax] = self.lo[ax] + lin % shape[ax]
            lin //= shape[ax]
        return tuple(out)

    def all_indices(self) -> np.ndarray:
        """(size, ndim) array of all multi-indices in C order."""
        grids = np.meshgrid(
            *(np.arange(l, h) for l, h in zip(self.lo, self.hi)), indexing="ij"
        )
        return np.stack([g.ravel() for g in grids], axis=1)

    def slices(self, relative_to: "Box | None" = None) -> tuple[slice, ...]:
        """Slices selecting this box inside an array covering ``relative_to``."""
        base = relative_to.lo if relative_to is not None else (0,) * self.ndim
        return tuple(
            slice(l - b, h - b) for l, h, b in zip(self.lo, self.hi, base)
        )

    def __iter__(self):
        return self.cells()


def split_box(box: Box, patch_shape: Sequence[int]) -> list[Box]:
    """Tile ``box`` with patches of at most ``patch_shape`` cells per axis.

    Trailing patches on each axis may be smaller when the box extent is
    not a multiple of the patch extent.  The returned patches cover the
    box exactly, without overlap, in C order of their patch coordinates.
    """
    if len(patch_shape) != box.ndim:
        raise ReproError("patch_shape rank mismatch")
    if any(p <= 0 for p in patch_shape):
        raise ReproError("patch_shape entries must be positive")
    ranges = []
    for l, h, p in zip(box.lo, box.hi, patch_shape):
        starts = list(range(l, h, p))
        ranges.append([(s, min(s + p, h)) for s in starts])
    out = []
    for combo in itertools.product(*ranges):
        lo = tuple(c[0] for c in combo)
        hi = tuple(c[1] for c in combo)
        out.append(Box(lo, hi))
    return out


def box_union_covers(boxes: Sequence[Box], domain: Box) -> bool:
    """Check that ``boxes`` tile ``domain`` exactly (no gaps, no overlap).

    Intended for validation in tests; cost is O(domain.size).
    """
    count = np.zeros(domain.shape, dtype=np.int64)
    for b in boxes:
        inter = b.intersection(domain)
        if inter.size != b.size:
            return False
        count[inter.slices(domain)] += 1
    return bool(np.all(count == 1))
