"""Analytic sweep performance model (Mathis-Kerbyson style).

The sweep-performance literature the paper builds on (e.g. [21],
Mathis & Kerbyson, "A General Performance Model of Structured and
Unstructured Mesh Particle Transport Computations") predicts sweep
time from two competing terms:

* useful work per worker:  ``V * t_vertex * groups / workers``, and
* pipeline fill along the critical path: the longest chain of
  patch-level dependencies, each hop paying a block compute plus a
  message.

This module provides that closed-form estimate for any PatchSet +
quadrature, which serves two purposes: sanity-checking the DES (trend
agreement is tested) and extrapolating to core counts too large to
simulate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sweep.dag import SweepTopology, condensation_fronts
from .cluster import Machine, TIANHE2
from .costmodel import CostModel

__all__ = ["SweepModelPrediction", "SweepPerformanceModel"]


@dataclass
class SweepModelPrediction:
    """Closed-form estimate of one sweep's parallel runtime."""

    time: float
    work_term: float
    pipeline_term: float
    critical_path_patches: int
    total_vertices: int


class SweepPerformanceModel:
    """Analytic model over a sweep topology.

    ``predict(total_cores)`` returns the max of the work term and the
    pipeline term - the standard two-regime sweep model.  The patch
    critical path is measured on the real patch-level DAG (condensed
    over strongly connected components for the interleaved-dependency
    case), weighted by patch cell counts.
    """

    def __init__(
        self,
        topology: SweepTopology,
        machine: Machine = TIANHE2,
        cost: CostModel | None = None,
    ):
        self.topology = topology
        self.machine = machine
        self.cost = cost if cost is not None else CostModel()
        self._critical = self._critical_path()

    def _critical_path(self) -> tuple[int, float]:
        """(hops, weighted cells) of the longest patch chain, maximized
        over angles.  Computed on the SCC condensation so interleaved
        patch dependencies (Fig. 4) are handled."""
        topo = self.topology
        npatches = topo.pset.num_patches
        sizes = np.array([p.num_cells for p in topo.pset.patches], dtype=float)
        best_hops, best_cells = 0, 0.0
        for angles in topo.angle_sets:
            comp, front, cedges = condensation_fronts(npatches, topo.patch_dag[angles[0]])
            # A component weighs the mean of its members.
            own = np.bincount(comp, sizes) / np.bincount(comp)
            cells = own.copy()
            # Relax front by front: every predecessor is settled first.
            order = np.argsort(front[cedges[:, 0]], kind="stable")
            src, dst = cedges[order].T
            hops = int(front.max()) + 1
            bounds = np.searchsorted(front[src], np.arange(hops + 1))
            for s, e in zip(bounds[:-1], bounds[1:]):
                np.maximum.at(cells, dst[s:e], cells[src[s:e]] + own[dst[s:e]])
            if cells.max() > best_cells:  # the first set wins a tie
                best_hops, best_cells = hops, float(cells.max())
        return best_hops, best_cells

    def predict(self, total_cores: int, mode: str = "hybrid") -> SweepModelPrediction:
        lay = self.machine.layout(total_cores, mode)
        cm = self.cost
        topo = self.topology
        v_total = topo.num_vertices
        t_vertex_eff = cm.t_vertex * cm.groups + cm.t_edge * 4 + cm.t_pop
        work = v_total * t_vertex_eff / lay.total_workers

        hops, path_cells = self._critical
        # One pipeline stage = compute the upwind patch's share for one
        # angle, then ship a face message downwind.
        per_hop_msg = self.machine.latency_inter + cm.t_unpack_fixed
        pipeline = (
            path_cells * t_vertex_eff  # the chain's own compute
            + hops * per_hop_msg
        )
        return SweepModelPrediction(
            time=max(work, pipeline),
            work_term=work,
            pipeline_term=pipeline,
            critical_path_patches=hops,
            total_vertices=v_total,
        )
