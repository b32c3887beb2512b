"""Multi-level priority strategies for sweep scheduling (Sec. V-D).

The paper prioritizes at two levels:

* **(patch, angle) priority** used by the runtime to pick the next
  patch-program:  ``prior(p, a) = prior(a) * C + prior(p)`` with C
  large so same-angle programs are scheduled consecutively and data
  streams flow to nearby patches quickly.
* **vertex priority** ordering the ready queue inside a patch-program.

Strategies (for both levels):

``fifo``  no preference (insertion order).
``bfs``   breadth-first level from the sources - compute upwind work as
          early as possible (paper: unstructured patch strategy).
``ldcp``  Longest Distance on Critical Path - prefer work with the
          longest downstream chain (paper: structured meshes).
``slbd``  Shortest Local Boundary Distance - prefer vertices closest to
          a patch boundary so downwind patches are unblocked soonest
          (a DFS variant; the paper's best performer).  At the patch
          level SLBD is dynamic: the program's priority follows the
          most boundary-near ready vertex in its queue.

Vertex keys are *min-heap* keys (smaller pops first); patch priorities
are *max* priorities (larger runs first).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .._util import ReproError
from .dag import (
    PatchAngleGraph, SweepTopology, condensation_fronts, kahn_fronts, multi_slice,
)

__all__ = [
    "PriorityStrategy",
    "vertex_priorities",
    "batched_vertex_priorities",
    "patch_priorities",
    "apply_priorities",
    "ANGLE_FACTOR",
]

STRATEGIES = ("fifo", "bfs", "ldcp", "slbd")
ANGLE_FACTOR = 1.0e6  # the paper's constant C
_FAR = 1.0e9


@dataclass(frozen=True)
class PriorityStrategy:
    """A patch-level + vertex-level strategy pair, e.g. ``SLBD+SLBD``."""

    patch: str = "slbd"
    vertex: str = "slbd"

    def __post_init__(self):
        for level, s in (("patch", self.patch), ("vertex", self.vertex)):
            if s not in STRATEGIES:
                raise ReproError(f"unknown {level} strategy {s!r}")

    @classmethod
    def parse(cls, spec: str) -> "PriorityStrategy":
        """Parse ``"LDCP+SLBD"`` / ``"slbd"`` (single = both levels)."""
        parts = [p.strip().lower() for p in spec.split("+")]
        if len(parts) == 1:
            return cls(parts[0], parts[0])
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        raise ReproError(f"cannot parse strategy {spec!r}")

    def __str__(self) -> str:
        return f"{self.patch.upper()}+{self.vertex.upper()}"


# -- vertex level ---------------------------------------------------------------------


def _local_topo_order(graph: PatchAngleGraph) -> list[int]:
    """Topological order of the patch-local subgraph (local edges only)."""
    n = graph.n_local
    indeg = np.bincount(graph.dl_target, minlength=n).tolist()
    indptr = graph.dl_indptr.tolist()
    target = graph.dl_target.tolist()
    q = deque(v for v in range(n) if indeg[v] == 0)
    order = []
    while q:
        v = q.popleft()
        order.append(v)
        for i in range(indptr[v], indptr[v + 1]):
            w = target[i]
            indeg[w] -= 1
            if indeg[w] == 0:
                q.append(w)
    if len(order) != n:
        raise ReproError("patch-local sweep subgraph is cyclic")
    return order


def vertex_priorities(graph: PatchAngleGraph, strategy: str) -> np.ndarray:
    """Min-heap keys per local vertex for the chosen strategy.

    The propagation loops run over plain Python lists: the subgraphs
    are patch-local (tens to hundreds of vertices), where per-element
    ndarray indexing costs more than the arithmetic itself.  All values
    are integer-valued float64 (plus the exact ``_FAR`` sentinel), so
    list-float and ndarray arithmetic are bitwise-identical.
    """
    n = graph.n_local
    if strategy == "fifo":
        return np.zeros(n)
    order = _local_topo_order(graph)
    indptr = graph.dl_indptr.tolist()
    target = graph.dl_target.tolist()

    if strategy == "bfs":
        # Dependency depth from local sources (schedule shallow first).
        level = [0.0] * n
        for v in order:
            lv = level[v] + 1
            for i in range(indptr[v], indptr[v + 1]):
                w = target[i]
                if level[w] < lv:
                    level[w] = lv
        return np.asarray(level)

    if strategy == "ldcp":
        # Longest downstream chain; schedule the longest first.
        height = [0.0] * n
        for v in reversed(order):
            h = 0.0
            for i in range(indptr[v], indptr[v + 1]):
                hw = height[target[i]] + 1
                if hw > h:
                    h = hw
            height[v] = h
        return -np.asarray(height)

    if strategy == "slbd":
        # Downstream distance to the nearest vertex with a remote
        # downwind edge; schedule the closest-to-boundary first.
        dist = [_FAR] * n
        for b in graph.boundary_vertices().tolist():
            dist[b] = 0.0
        for v in reversed(order):
            if dist[v] == 0.0:
                continue
            best = dist[v]
            for i in range(indptr[v], indptr[v + 1]):
                d = dist[target[i]] + 1
                if d < best:
                    best = d
            dist[v] = best
        return np.asarray(dist)

    raise ReproError(f"unknown vertex strategy {strategy!r}")


def batched_vertex_priorities(
    graphs: list[PatchAngleGraph], strategy: str
) -> None:
    """Set ``vertex_prio`` / ``vertex_keys`` (read-only: a graph is
    shared by its angle set) on every graph in one vectorized pass;
    :meth:`~repro.sweep.dag.PatchAngleGraph.set_keys` builds each
    graph's start table and clears the tasks recorded under old keys.

    The per-graph propagation loops of :func:`vertex_priorities` become
    a single level-synchronous relaxation over the *disjoint union* of
    all patch-local subgraphs: vertices are grouped into Kahn fronts
    (every predecessor of a front-``L`` vertex sits in a front ``< L``),
    then each strategy's recurrence is applied one front at a time with
    ``np.maximum.at`` / ``np.minimum.at`` scatter reductions.  All
    priority values are integer-valued float64 (plus the exact ``_FAR``
    sentinel), so the reduction order cannot perturb them: the result
    is bitwise-identical to the scalar reference, per graph.
    """
    if strategy not in STRATEGIES:
        raise ReproError(f"unknown vertex strategy {strategy!r}")
    # The angles of a set share one graph object: relax it once.
    graphs = list({id(g): g for g in graphs}.values())
    if not graphs:
        return
    ns = np.array([g.n_local for g in graphs], dtype=np.int64)
    offs = np.zeros(len(ns) + 1, dtype=np.int64)
    np.cumsum(ns, out=offs[1:])
    n = int(offs[-1])
    # Vertex index within each graph, over the whole union: the fifo
    # heap key, and the tie-break term of every other strategy's key.
    varr = np.arange(n, dtype=np.int64) - np.repeat(offs[:-1], ns)
    bounds = offs.tolist()
    if strategy == "fifo":
        zeros = np.zeros(n)
        zeros.flags.writeable = False
        for g, a, b in zip(graphs, bounds, bounds[1:]):
            g.vertex_prio = zeros[a:b]
            g.set_keys(varr[a:b])
        return

    # Disjoint union in global numbering (graph-major, CSR source order).
    lm = [len(g.dl_target) for g in graphs]
    indptr = _union_indptr([g.dl_indptr for g in graphs], lm, ns)
    tgt = np.concatenate([g.dl_target for g in graphs])
    tgt = tgt + np.repeat(offs[:-1], lm)

    # Kahn fronts, peeled across every graph simultaneously; the edges
    # grouped by their source's front (source id, then CSR position:
    # the order of a stable argsort by front).
    _, order, fronts = kahn_fronts(
        n, indptr, tgt, "patch-local sweep subgraph"
    )
    deg = np.diff(indptr)[order]
    etgt = tgt[multi_slice(indptr[order], deg)]
    esrc = np.repeat(order, deg)
    ebounds = np.concatenate(([0], np.cumsum(deg)))[fronts].tolist()
    nfronts = len(fronts) - 1

    if strategy == "bfs":
        val = np.zeros(n)
        for f in range(nfronts):  # forward: settle sources, push depth
            s, e = ebounds[f], ebounds[f + 1]
            np.maximum.at(val, etgt[s:e], val[esrc[s:e]] + 1.0)
    elif strategy == "ldcp":
        val = np.zeros(n)
        for f in range(nfronts - 1, -1, -1):  # backward: pull heights
            s, e = ebounds[f], ebounds[f + 1]
            np.maximum.at(val, esrc[s:e], val[etgt[s:e]] + 1.0)
        val = -val
    else:  # slbd
        val = np.full(n, _FAR)
        rptr = _union_indptr(
            [g.dr_indptr for g in graphs], [len(g.dr_local) for g in graphs], ns
        )
        val[rptr[1:] > rptr[:-1]] = 0.0  # a remote downwind edge
        for f in range(nfronts - 1, -1, -1):  # backward: pull distances
            s, e = ebounds[f], ebounds[f + 1]
            np.minimum.at(val, esrc[s:e], val[etgt[s:e]] + 1.0)
    # Every strategy above yields integer-valued float64 (incl. the
    # exact ``_FAR`` sentinel), so the encoded heap key is exact.
    keys = val.astype(np.int64) * np.repeat(ns, ns) + varr
    val.flags.writeable = False
    for g, a, b in zip(graphs, bounds, bounds[1:]):
        g.vertex_prio = val[a:b]
        g.set_keys(keys[a:b])


def _union_indptr(
    ptrs: list[np.ndarray], sizes: list[int], ns: np.ndarray
) -> np.ndarray:
    """Row pointers of the disjoint union of CSR tables ``ptrs`` (``ns``
    rows and ``sizes`` entries each): one concatenate plus each table's
    entry offset."""
    off = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    starts = np.concatenate([p[:-1] for p in ptrs]) + np.repeat(off[:-1], ns)
    return np.append(starts, off[-1])


# -- patch level -----------------------------------------------------------------------


def patch_priorities(
    topology: SweepTopology, strategy: str
) -> dict[tuple[int, int], float]:
    """The ``prior(p)`` term per (patch, angle); larger runs earlier.

    The patch-level digraph can be cyclic (interleaved dependencies,
    Fig. 4), so levels/heights are computed on its strongly-connected-
    component condensation - once per angle set, which shares it.
    """
    out: dict[tuple[int, int], float] = {}
    npatches = topology.pset.num_patches
    for angles in topology.angle_sets:
        # SLBD is dynamic at the patch level (see SweepPatchProgram).
        term = [0.0] * npatches
        if strategy in ("bfs", "ldcp"):
            # bfs: shallow components first (minus the distance from a
            # source); ldcp: the longest downstream chain first.
            ldcp = strategy == "ldcp"
            comp, front, _ = condensation_fronts(
                npatches, topology.patch_dag[angles[0]], reverse=ldcp)
            depth = front[comp].astype(float)
            term = (depth if ldcp else -depth).tolist()
        elif strategy not in ("fifo", "slbd"):
            raise ReproError(f"unknown patch strategy {strategy!r}")
        for a in angles:
            for p, prior_p in enumerate(term):
                out[(p, a)] = prior_p
    return out


def apply_priorities(
    topology: SweepTopology,
    strategy: PriorityStrategy | str,
    angle_factor: float = ANGLE_FACTOR,
) -> dict[tuple[int, int], float]:
    """Compute static (patch, angle) priorities and set vertex keys.

    Returns ``prior(p, a) = prior(a) * C + prior(p)``; as the paper
    requires, the angle term dominates so sweeps of one angle flow
    through the patch graph before the next angle's work starts.
    Vertex keys are stored on each :class:`PatchAngleGraph`.
    """
    if isinstance(strategy, str):
        strategy = PriorityStrategy.parse(strategy)
    patch_term = patch_priorities(topology, strategy.patch)
    na = topology.num_angles
    static: dict[tuple[int, int], float] = {}
    for (p, a), prior_p in patch_term.items():
        prior_a = float(na - a)  # earlier angles strictly dominate
        static[(p, a)] = prior_a * angle_factor + prior_p
    batched_vertex_priorities(
        list(topology.graphs.values()), strategy.vertex
    )
    return static
