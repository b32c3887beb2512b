"""JAxMIN-style BSP components.

JAxMIN programs are built from *components*: generic implementations of
computational patterns that users instantiate with an application
kernel (Sec. II-B).  This module provides the patterns the paper names
- initialization, numerical computation, and reduction - executed in
BSP super-steps: all patches compute with previous-step data, then a
halo exchange updates remote copies.

These components demonstrate the framework the data-driven abstraction
extends.  The BSP sweep baseline the motivation section argues against
(:mod:`repro.sweep.baselines`) does not use them: it runs its
super-steps on the runtime's simulator core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from .._util import ReproError
from .halo import HaloStats, halo_exchange
from .patch_data import PatchField

__all__ = [
    "InitializeComponent",
    "NumericalComponent",
    "ReductionComponent",
    "BSPExecutor",
    "BSPReport",
]


class InitializeComponent:
    """Fill a field from a function of cell centroids: ``fn(xyz) -> values``."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn

    def apply(self, fld: PatchField) -> None:
        mesh = fld.pset.mesh
        centers = (
            mesh.cell_centroids
            if hasattr(mesh, "cell_centroids")
            else mesh.cell_centers()
        )
        for p in fld.pset.patches:
            fld.local[p.id] = np.asarray(self.fn(centers[p.cells]), dtype=float)


class NumericalComponent:
    """Per-patch numerical kernel executed once per super-step.

    The kernel signature is ``kernel(patch, local, ghost_cells, ghost)
    -> new_local``; it sees the previous-step local values plus the
    previous-step ghost values, the BSP contract.
    """

    def __init__(self, kernel: Callable):
        self.kernel = kernel

    def apply_superstep(self, fld: PatchField) -> HaloStats:
        new_vals = {}
        for p in fld.pset.patches:
            new_vals[p.id] = np.asarray(
                self.kernel(
                    p, fld.local[p.id], fld.ghost_cells[p.id], fld.ghost[p.id]
                ),
                dtype=float,
            )
            if new_vals[p.id].shape != fld.local[p.id].shape:
                raise ReproError("kernel changed the field shape")
        for pid, v in new_vals.items():
            fld.local[pid] = v
        return halo_exchange(fld)


class ReductionComponent:
    """Global reduction over the owned cells of every patch."""

    def __init__(self, op: str = "sum"):
        if op not in ("sum", "max", "min"):
            raise ReproError(f"unsupported reduction {op!r}")
        self.op = op

    def apply(self, fld: PatchField) -> float:
        parts = [fld.local[p.id] for p in fld.pset.patches]
        stacked = np.concatenate([np.ravel(x) for x in parts])
        return float(getattr(np, self.op)(stacked))


@dataclass
class BSPReport:
    """Outcome of a BSP run: convergence and super-step accounting."""

    supersteps: int
    converged: bool
    residual: float
    halo: HaloStats = field(default_factory=HaloStats)


class BSPExecutor:
    """Run a NumericalComponent in super-steps until a residual converges.

    ``residual_fn(old_global, new_global) -> float`` defaults to the
    max-abs update; the loop stops when it drops below ``tol`` or after
    ``max_steps`` super-steps.
    """

    def __init__(self, tol: float = 1e-8, max_steps: int = 10_000):
        self.tol = tol
        self.max_steps = max_steps

    def run(
        self,
        component: NumericalComponent,
        fld: PatchField,
        residual_fn: Callable[[np.ndarray, np.ndarray], float] | None = None,
    ) -> BSPReport:
        halo_exchange(fld)  # seed ghosts with the initial data
        total = HaloStats()
        res = np.inf
        for step in range(1, self.max_steps + 1):
            old = fld.to_global()
            stats = component.apply_superstep(fld)
            total.messages += stats.messages
            total.values += stats.values
            total.bytes += stats.bytes
            total.inter_proc_messages += stats.inter_proc_messages
            total.inter_proc_bytes += stats.inter_proc_bytes
            new = fld.to_global()
            res = (
                residual_fn(old, new)
                if residual_fn is not None
                else (float(np.max(np.abs(new - old))) if new.size else 0.0)
            )
            if res < self.tol:
                return BSPReport(step, True, res, total)
        return BSPReport(self.max_steps, False, res, total)
