"""Coarsened sweep graphs (Sec. V-E).

Mesh structure and data dependencies rarely change between sweep
iterations, so the vertex clusters formed during the first data-driven
sweep can be cached as a *coarsened graph* CG = (CV, CE, P(CV), P(CE)):
each coarse vertex is a recorded cluster (an ordered run of DAG
vertices), each coarse edge the bundle of DAG edges between two
clusters.  Subsequent sweeps traverse CG instead of the DAG, paying
scheduling and bookkeeping costs per *cluster* instead of per vertex -
the paper reports 7-10x speedups for the scheduling-bound portion.

Theorem 1 (if the DAG is acyclic, CG is acyclic) holds because a
cluster is a consecutive run of one program execution: mutual
dependencies between two clusters would require their executions to
overlap, which the engine's run-atomicity forbids.
:func:`coarsened_is_acyclic` verifies it anyway (and is property-tested).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .._util import ReproError
from .dag import (
    PatchAngleGraph, SweepTopology, check_acyclic, csr_by_source, multi_slice,
)
from .sweep_program import SweepPatchProgram

__all__ = [
    "CoarsenedPatchGraph",
    "build_coarsened",
    "coarsened_is_acyclic",
    "CoarsenedSweepProgram",
]


@dataclass(kw_only=True)
class CoarsenedPatchGraph(PatchAngleGraph):
    """CG restricted to one (patch, angle): a :class:`PatchAngleGraph`
    whose ``n_local`` vertices are the clusters and whose CSR tables
    hold the distinct coarse edges, targets ascending (``dr_local`` is
    the target's coarse vertex in patch ``dr_patch``)."""

    angle: int
    cluster_ptr: np.ndarray  # (n_local + 1,) offsets into cluster_cells
    cluster_cells: np.ndarray  # DAG vertices, cluster by cluster, in sweep order
    dr_items: np.ndarray  # DAG edges bundled by each remote coarse edge

    @property
    def n_vertices(self) -> int:
        return len(self.cluster_cells)


def build_coarsened(
    topology: SweepTopology, programs: Sequence[SweepPatchProgram]
) -> dict[tuple[int, int], CoarsenedPatchGraph]:
    """Build CG from the clusters recorded by a completed sweep.

    ``programs`` must have been run with ``record_clusters=True`` and
    must have swept every vertex of their (patch, angle) subgraph.
    """
    cv_of: dict[tuple[int, int], np.ndarray] = {}  # DAG vertex -> coarse vertex
    layout: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for prog in programs:
        key = (prog.patch, prog.task)
        sizes = np.array([len(c) for c in prog.clusters if c], dtype=np.int64)
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        cells = np.fromiter(chain.from_iterable(prog.clusters), np.int64, ptr[-1])
        cv = np.full(topology.graphs[key].n_local, -1, dtype=np.int64)
        cv[cells] = np.repeat(np.arange(len(sizes)), sizes)
        if np.any(cv < 0):
            raise ReproError(
                f"program {key} did not sweep all vertices; cannot coarsen"
            )
        cv_of[key] = cv
        layout[key] = ptr, cells
    if set(cv_of) != set(topology.graphs):
        raise ReproError("clusters recorded for a different topology")

    npat = topology.pset.num_patches
    first = np.concatenate(([0], np.cumsum([p.num_cells for p in topology.pset.patches])))
    cv_all = {a: np.concatenate([cv_of[(p, a)] for p in range(npat)])
              for a in range(topology.num_angles)}
    stride = max(len(ptr) for ptr, _ in layout.values())  # > every n_cv
    out: dict[tuple[int, int], CoarsenedPatchGraph] = {}
    incoming: dict[tuple[int, int], list[np.ndarray]] = {}
    for key, g in topology.graphs.items():
        p, a = key
        cv = cv_of[key]
        ptr, cells = layout[key]
        n_cv = len(ptr) - 1

        # Distinct local coarse edges: unique over the scalar (cu, cw) key.
        cu = np.repeat(cv, np.diff(g.dl_indptr))
        cw = cv[g.dl_target]
        lk = np.unique((cu * n_cv + cw)[cu != cw])
        dl_indptr, dl_target = csr_by_source(lk // n_cv, n_cv, lk % n_cv)

        # Distinct remote coarse edges (cu, target patch, target coarse
        # vertex), each bundling its DAG edges.
        dcv = cv_all[a][first[g.dr_patch] + g.dr_local]
        rk, items = np.unique(
            (np.repeat(cv, np.diff(g.dr_indptr)) * npat + g.dr_patch) * stride + dcv,
            return_counts=True,
        )
        dr_indptr, dr_patch, dr_local, dr_items = csr_by_source(
            rk // (npat * stride), n_cv, rk // stride % npat, rk % stride, items
        )
        for q in np.unique(dr_patch).tolist():
            incoming.setdefault((q, a), []).append(dr_local[dr_patch == q])

        out[key] = CoarsenedPatchGraph(
            patch=p, n_local=n_cv, angle=a,
            init_counts=np.bincount(dl_target, minlength=n_cv),
            dl_indptr=dl_indptr, dl_target=dl_target,
            dr_indptr=dr_indptr, dr_patch=dr_patch, dr_local=dr_local,
            dr_items=dr_items, cluster_ptr=ptr, cluster_cells=cells,
            dst_ids=topology.dst_ids,
        )
    # Every remote coarse edge is one more upwind edge of its target.
    for key, targets in incoming.items():
        np.add.at(out[key].init_counts, np.concatenate(targets), 1)
    for cg in out.values():  # no priorities: clusters pop in index order
        cg.set_keys(np.arange(cg.n_local))
    return out


def coarsened_is_acyclic(cgs: dict[tuple[int, int], CoarsenedPatchGraph]) -> bool:
    """Theorem 1 checked on the global coarse graph (per angle) by the
    one Kahn peel, :func:`repro.sweep.dag.check_acyclic`."""
    # Global coarse vertex ids: first id of every (patch, angle).
    firsts = np.cumsum([0] + [cg.n_local for cg in cgs.values()]).tolist()
    base = dict(zip(cgs, firsts))
    src = [np.zeros(0, dtype=np.int64)]
    dst = [np.zeros(0, dtype=np.int64)]
    for (p, a), cg in cgs.items():
        ids = base[(p, a)] + np.arange(cg.n_local)
        patches, inverse = np.unique(cg.dr_patch, return_inverse=True)
        targets = [base.get((q, a)) for q in patches.tolist()]
        if None in targets:
            raise ReproError(
                f"coarsened graph of patch {p}, angle {a} points at patch "
                f"{patches[targets.index(None)]}, which has no coarsened graph"
            )
        src += [np.repeat(ids, np.diff(cg.dl_indptr)), np.repeat(ids, np.diff(cg.dr_indptr))]
        dst += [base[(p, a)] + cg.dl_target,
                np.asarray(targets, dtype=np.int64)[inverse] + cg.dr_local]
    return check_acyclic(firsts[-1], np.concatenate(src), np.concatenate(dst))


class CoarsenedSweepProgram(SweepPatchProgram):
    """Sweep of one (patch, angle) over its coarsened graph.

    The same Listing-1 program over a graph whose vertices are
    clusters: identical physics (clusters replay their recorded vertex
    order), but ready-queue operations, counter updates and stream
    payloads all shrink by the mean cluster size.  Stream item and byte
    counts still reflect the underlying data volume - coarsening saves
    bookkeeping, not bandwidth.  Overridden is only what a vertex being
    a run of cells changes.
    """

    def __init__(
        self,
        cg: CoarsenedPatchGraph,
        cells_global: np.ndarray,
        solve_fn: Callable[[np.ndarray, int], None] | None = None,
        static_priority: float = 0.0,
        cv_grain: int = 1_000_000_000,
        bytes_per_item: int = 8,
    ):
        super().__init__(
            cg, cells_global, grain=cv_grain, solve_fn=solve_fn,
            static_priority=static_priority, bytes_per_item=bytes_per_item,
            angle=cg.angle,
        )

    def _solve(self, popped, angle: int) -> int:
        # The run reports the cells as its vertices, and the clusters
        # as its pops: bookkeeping is per coarse pop, the saving.
        g = self.graph
        starts = g.cluster_ptr[popped]
        sizes = g.cluster_ptr[1:][popped] - starts
        if self.solve_fn is not None:
            super()._solve(g.cluster_cells[multi_slice(starts, sizes)], angle)
        return int(sizes.sum())

    def _collect(self, whole: bool) -> tuple:
        """A stream carries the DAG edges its coarse edges bundle."""
        popped, outs, edges = super()._collect(whole)
        g = self.graph
        starts = g.dr_indptr[popped]
        j = multi_slice(starts, g.dr_indptr[1:][popped] - starts)
        items = np.bincount(g.dr_patch[j], g.dr_items[j]).astype(np.int64)
        outs = [(q, payload, items.item(q)) for q, payload, _ in outs]
        return popped, outs, edges

    def remaining_workload(self) -> int:
        return self.graph.n_vertices - self._solved
