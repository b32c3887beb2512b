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

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from collections.abc import Callable, Sequence

import numpy as np

from .._util import ReproError
from ..core.patch_program import PatchProgram
from ..core.stream import ProgramId, Stream
from .dag import SweepTopology, check_acyclic
from .sweep_program import SweepPatchProgram

__all__ = [
    "CoarsenedPatchGraph",
    "build_coarsened",
    "coarsened_is_acyclic",
    "CoarsenedSweepProgram",
]


@dataclass
class CoarsenedPatchGraph:
    """CG restricted to one (patch, angle): clusters and coarse edges."""

    patch: int
    angle: int
    clusters: list[np.ndarray]  # ordered DAG vertices per coarse vertex
    init_counts: np.ndarray  # (n_cv,) distinct upwind coarse edges
    local_adj: list[list[int]]  # cv -> target cvs in this patch
    remote_adj: list[list[tuple[int, int, int]]]  # cv -> (dst_patch, dst_cv, items)

    @property
    def n_cv(self) -> int:
        return len(self.clusters)

    @property
    def n_vertices(self) -> int:
        return int(sum(len(c) for c in self.clusters))


def build_coarsened(
    topology: SweepTopology, programs: Sequence[SweepPatchProgram]
) -> dict[tuple[int, int], CoarsenedPatchGraph]:
    """Build CG from the clusters recorded by a completed sweep.

    ``programs`` must have been run with ``record_clusters=True`` and
    must have swept every vertex of their (patch, angle) subgraph.
    """
    cv_of: dict[tuple[int, int], np.ndarray] = {}
    clusters_of: dict[tuple[int, int], list[np.ndarray]] = {}
    for prog in programs:
        key = (prog.patch, prog.task)
        g = topology.graphs[key]
        cv = np.full(g.n_local, -1, dtype=np.int64)
        clusters = []
        for ci, cluster in enumerate(prog.clusters):
            if not cluster:
                continue
            cv[cluster] = len(clusters)
            clusters.append(np.asarray(cluster, dtype=np.int64))
        if np.any(cv < 0):
            raise ReproError(
                f"program {key} did not sweep all vertices; cannot coarsen"
            )
        cv_of[key] = cv
        clusters_of[key] = clusters
    if set(cv_of) != set(topology.graphs):
        raise ReproError("clusters recorded for a different topology")

    out: dict[tuple[int, int], CoarsenedPatchGraph] = {}
    incoming: dict[tuple[int, int], set] = {}  # (patch,angle) -> {(src, dst_cv)}
    for key, g in topology.graphs.items():
        p, a = key
        cv = cv_of[key]
        n_cv = len(clusters_of[key])

        # Local coarse edges (vectorized group-by over the CSR edges).
        src = np.repeat(np.arange(g.n_local), np.diff(g.dl_indptr))
        cu_l = cv[src]
        cw_l = cv[g.dl_target]
        cross = cu_l != cw_l
        local_adj: list[list[int]] = [[] for _ in range(n_cv)]
        counts = np.zeros(n_cv, dtype=np.int64)
        if np.any(cross):
            pairs = np.unique(
                np.stack([cu_l[cross], cw_l[cross]], axis=1), axis=0
            )
            for cu, cw in pairs.tolist():
                local_adj[cu].append(cw)
                counts[cw] += 1

        # Remote coarse edges with underlying-item multiplicities.
        rsrc = np.repeat(np.arange(g.n_local), np.diff(g.dr_indptr))
        remote_adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n_cv)]
        if len(rsrc):
            cu_r = cv[rsrc]
            q_r = g.dr_patch
            # Destination coarse vertex, looked up per target patch.
            dcv_r = np.empty(len(rsrc), dtype=np.int64)
            for q in np.unique(q_r):
                m = q_r == q
                dcv_r[m] = cv_of[(int(q), a)][g.dr_local[m]]
            triples, items = np.unique(
                np.stack([cu_r, q_r, dcv_r], axis=1), axis=0,
                return_counts=True,
            )
            for (cu, q, dcv), n_items in zip(triples.tolist(), items.tolist()):
                remote_adj[cu].append((q, dcv, n_items))
                incoming.setdefault((q, a), set()).add(((p, cu), dcv))

        out[key] = CoarsenedPatchGraph(
            patch=p,
            angle=a,
            clusters=clusters_of[key],
            init_counts=counts,
            local_adj=local_adj,
            remote_adj=remote_adj,
        )
    # Add remote coarse edges to the targets' initial counts.
    for key, edges in incoming.items():
        cg = out[key]
        for _, dcv in edges:
            cg.init_counts[dcv] += 1
    return out


def coarsened_is_acyclic(cgs: dict[tuple[int, int], CoarsenedPatchGraph]) -> bool:
    """Theorem 1 checked on the global coarse graph (per angle) by the
    one Kahn peel, :func:`repro.sweep.dag.check_acyclic`."""
    # Global coarse vertex ids: first id of every (patch, angle).
    base: dict[tuple[int, int], int] = {}
    n = 0
    for key, cg in cgs.items():
        base[key] = n
        n += cg.n_cv
    src, dst = [], []  # coarse edges, by global id
    for (p, a), cg in cgs.items():
        first = base[(p, a)]
        for cu in range(cg.n_cv):
            targets = [first + cw for cw in cg.local_adj[cu]] + [
                base[(q, a)] + dcv for q, dcv, _ in cg.remote_adj[cu]]
            src += [first + cu] * len(targets)
            dst += targets
    return check_acyclic(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    )


class CoarsenedSweepProgram(PatchProgram):
    """Sweep of one (patch, angle) over its coarsened graph.

    Identical physics to :class:`SweepPatchProgram` (clusters replay
    their recorded vertex order), but bookkeeping is per coarse vertex:
    ready-queue operations, counter updates and stream payloads all
    shrink by the mean cluster size.  Stream byte counts still reflect
    the underlying data volume - coarsening saves bookkeeping, not
    bandwidth.
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
        super().__init__(cg.patch, cg.angle)
        self.cg = cg
        self.cells_global = cells_global
        self.solve_fn = solve_fn
        self.static_priority = static_priority
        self.cv_grain = cv_grain
        self.bytes_per_item = bytes_per_item
        self._counts: list[int] = []
        self._heap: list[int] = []
        self._outstreams: list[Stream] = []
        self._solved_v = 0
        self._last = {"vertices": 0, "edges": 0, "remote_items": 0,
                      "input_items": 0, "streams": 0}

    def init(self) -> None:
        cg = self.cg
        self._counts = cg.init_counts.tolist()
        self._heap = [c for c in range(cg.n_cv) if self._counts[c] == 0]
        self._heap.sort()
        self._solved_v = 0
        self._outstreams = []

    def input(self, stream: Stream) -> None:
        counts = self._counts
        heap = self._heap
        n = 0
        for c in stream.payload:
            counts[c] -= 1
            if counts[c] == 0:
                heappush(heap, c)
            n += 1
        self._last["input_items"] += n

    def compute(self) -> None:
        heap = self._heap
        if not heap:
            self._last = {"vertices": 0, "edges": 0, "remote_items": 0,
                          "input_items": self._last["input_items"], "streams": 0}
            return
        cg = self.cg
        counts = self._counts
        popped: list[int] = []
        out: dict[int, list[int]] = {}
        out_items: dict[int, int] = {}
        edges = 0
        nverts = 0
        while heap and len(popped) < self.cv_grain:
            c = heappop(heap)
            popped.append(c)
            nverts += len(cg.clusters[c])
            for cw in cg.local_adj[c]:
                counts[cw] -= 1
                edges += 1
                if counts[cw] == 0:
                    heappush(heap, cw)
            for q, dcv, items in cg.remote_adj[c]:
                out.setdefault(q, []).append(dcv)
                out_items[q] = out_items.get(q, 0) + items
                edges += 1

        if self.solve_fn is not None:
            cells = np.concatenate([cg.clusters[c] for c in popped])
            self.solve_fn(self.cells_global[cells], cg.angle)
        self._solved_v += nverts

        angle = cg.angle
        remote_items = 0
        for q, cvs in out.items():
            items = out_items[q]
            remote_items += items
            self._outstreams.append(
                Stream(
                    src=self.id,
                    dst=ProgramId(q, angle),
                    payload=np.asarray(cvs, dtype=np.int64),
                    items=items,
                    nbytes=items * self.bytes_per_item,
                )
            )
        self._last = {
            "vertices": nverts,
            # Bookkeeping is per coarse pop/edge: this is the saving.
            "edges": edges,
            "remote_items": remote_items,
            "input_items": self._last["input_items"],
            "streams": len(out),
        }
        # Report pops at coarse granularity through a dedicated counter.
        self._last["pops"] = len(popped)

    def output(self) -> Stream | None:
        if self._outstreams:
            return self._outstreams.pop(0)
        return None

    def vote_to_halt(self) -> bool:
        return not self._heap

    def state_dict(self) -> dict:
        """The mutable local context as flat copies; the coarsened
        graph and the constructor arguments are shared, never captured
        (see :meth:`SweepPatchProgram.state_dict`)."""
        return {
            "counts": self._counts[:],
            "heap": self._heap[:],
            "solved": self._solved_v,
            "outstreams": [replace(s) for s in self._outstreams],
            "last": dict(self._last),
        }

    def load_state_dict(self, d: dict) -> None:
        self._counts = d["counts"][:]
        self._heap = d["heap"][:]
        self._solved_v = d["solved"]
        self._outstreams = [replace(s) for s in d["outstreams"]]
        self._last = dict(d["last"])

    def remaining_workload(self) -> int:
        return self.cg.n_vertices - self._solved_v

    def priority(self) -> float:
        return self.static_priority

    def last_run_counters(self) -> dict[str, int]:
        # Hand the live dict over (see SweepPatchProgram): the caller
        # reads it before the next input/compute can touch ``_last``.
        out = self._last
        self._last = {"vertices": 0, "edges": 0, "remote_items": 0,
                      "input_items": 0, "streams": 0}
        return out
