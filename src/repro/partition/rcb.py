"""Recursive coordinate bisection (RCB) partitioning.

RCB is the workhorse geometric partitioner used here for cutting
unstructured meshes into patches: it is fast, deterministic, produces
compact (low-surface) parts, and handles arbitrary part counts by
proportional splitting.
"""

from __future__ import annotations

import numpy as np

from .._util import ReproError

__all__ = ["rcb_partition"]


def rcb_partition(
    points: np.ndarray,
    nparts: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Partition ``points`` (n, dim) into ``nparts`` by recursive bisection.

    Each recursion splits the widest axis at the weighted quantile that
    divides the requested part counts proportionally, so ``nparts`` need
    not be a power of two.  Returns an int array of part ids; all parts
    are non-empty when ``nparts <= n``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ReproError("points must be (n, dim)")
    if not np.all(np.isfinite(points)):
        raise ReproError("points must be finite")
    n = len(points)
    if nparts <= 0:
        raise ReproError("nparts must be positive")
    if nparts > n:
        raise ReproError(f"cannot make {nparts} non-empty parts of {n} points")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ReproError("weights must have one entry per point")
        # Written so NaN fails too: NaN < 0 is False.
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ReproError("weights must be finite and non-negative")

    out = np.zeros(n, dtype=np.int64)
    _rcb(points, weights, np.arange(n), nparts, 0, out)
    return out


def _rcb(
    points: np.ndarray,
    weights: np.ndarray,
    idx: np.ndarray,
    nparts: int,
    first_part: int,
    out: np.ndarray,
) -> None:
    if nparts == 1:
        out[idx] = first_part
        return
    left_parts = nparts // 2
    right_parts = nparts - left_parts
    frac = left_parts / nparts

    pts = points[idx]
    spans = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(spans))
    order = np.argsort(pts[:, axis], kind="stable")

    w = weights[idx][order]
    total = float(w.sum())
    if total <= 0:
        # All-zero weights: fall back to equal counts.
        cut = max(left_parts, min(len(idx) - right_parts, int(len(idx) * frac)))
    else:
        csum = np.cumsum(w)
        cut = int(np.searchsorted(csum, frac * total, side="left")) + 1
        # Keep at least one point per side and enough points per part.
        cut = max(left_parts, min(len(idx) - right_parts, cut))

    left = idx[order[:cut]]
    right = idx[order[cut:]]
    _rcb(points, weights, left, left_parts, first_part, out)
    _rcb(points, weights, right, right_parts, first_part + left_parts, out)
