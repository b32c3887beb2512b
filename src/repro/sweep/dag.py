"""Sweep dependency DAGs (Sec. II-C, V-A).

For every ordinate direction, the upwind/downwind relation between
face-adjacent cells induces a directed acyclic graph whose vertices are
``(cell, angle)`` pairs; a sweep is a topological traversal of that
graph.  This module builds, per ``(patch, angle)``, the structures of
Listing 1's local context:

* initial in-degree counts (number of upwind neighbours per vertex),
* downwind local edges (CSR of patch-local target indices), and
* downwind remote edges (CSR of target patch + target local index),

all derived with vectorized NumPy group-bys so million-edge topologies
build in seconds.  The structures are immutable and shared by every
sweep iteration, energy group and runtime backend.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .._util import ReproError
from ..framework.connectivity import InterfaceTable, build_interfaces
from ..framework.patch import PatchSet
from .quadrature import Quadrature

__all__ = [
    "directed_edges",
    "check_acyclic",
    "break_cycles",
    "multi_slice",
    "csr_by_source",
    "kahn_fronts",
    "topological_levels",
    "PatchAngleGraph",
    "SweepTopology",
]


def directed_edges(
    interfaces: InterfaceTable, direction: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Directed dependency edges (upwind -> downwind) for one direction.

    An interface with normal n (oriented a -> b) yields edge a -> b when
    ``dot(direction, n) > tol``, edge b -> a when ``< -tol``, and no
    dependency when the face is parallel to the direction.  On 2-D
    meshes only the (x, y) components of the ordinate interact with the
    geometry (standard 2-D Sn: the domain is invariant in z).
    """
    d = np.asarray(direction, dtype=np.float64)
    dot = interfaces.normal @ d[: interfaces.normal.shape[1]]
    fwd = dot > tol
    bwd = dot < -tol
    u = np.concatenate([interfaces.cell_a[fwd], interfaces.cell_b[bwd]])
    v = np.concatenate([interfaces.cell_b[fwd], interfaces.cell_a[bwd]])
    return u, v


def check_acyclic(num_vertices: int, u: np.ndarray, v: np.ndarray) -> bool:
    """True iff the edge set is a DAG (the Kahn peel reaches every vertex)."""
    try:
        topological_levels(num_vertices, u, v)
    except ReproError:
        return False
    return True


def break_cycles(
    num_vertices: int, u: np.ndarray, v: np.ndarray,
    weight: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean keep-mask removing a feedback edge set, making (u, v) a DAG.

    Severely distorted meshes can induce dependency *cycles* for some
    directions; production sweepers (e.g. Pautz [20]) break them and
    treat the severed dependencies with lagged (previous-iteration)
    flux.  The heuristic here peels Kahn-ready vertices and, when the
    peel stalls, drops the lightest in-edge of the stalled vertex with
    the smallest in-degree - cheap and effective for the near-acyclic
    graphs distorted meshes produce.
    """
    m = len(u)
    keep = np.ones(m, dtype=bool)
    if weight is None:
        weight = np.ones(m)
    # Adjacency: per vertex, outgoing and incoming edge ids.
    order = np.argsort(u, kind="stable")
    out_ptr = np.searchsorted(u[order], np.arange(num_vertices + 1))
    order_in = np.argsort(v, kind="stable")
    in_ptr = np.searchsorted(v[order_in], np.arange(num_vertices + 1))

    indeg = np.bincount(v, minlength=num_vertices).astype(np.int64)
    done = np.zeros(num_vertices, dtype=bool)
    q = deque(np.nonzero(indeg == 0)[0].tolist())
    remaining = num_vertices
    while remaining:
        while q:
            x = q.popleft()
            if done[x]:
                continue
            done[x] = True
            remaining -= 1
            for k in range(out_ptr[x], out_ptr[x + 1]):
                e = order[k]
                if not keep[e]:
                    continue
                w = v[e]
                indeg[w] -= 1
                if indeg[w] == 0 and not done[w]:
                    q.append(int(w))
        if remaining == 0:
            break
        # Stalled: every remaining vertex is on a cycle.  Cut the
        # lightest live in-edge of the minimum-in-degree vertex.
        alive = np.nonzero(~done & (indeg > 0))[0]
        x = alive[np.argmin(indeg[alive])]
        best_e, best_w = -1, np.inf
        for k in range(in_ptr[x], in_ptr[x + 1]):
            e = order_in[k]
            if keep[e] and not done[u[e]] and weight[e] < best_w:
                best_e, best_w = int(e), float(weight[e])
        if best_e < 0:
            raise ReproError("cycle breaking failed to find an edge to cut")
        keep[best_e] = False
        indeg[x] -= 1
        if indeg[x] == 0:
            q.append(int(x))
    return keep


def multi_slice(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenation of ``[s, s+c)`` ranges (CSR gather)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    base = np.repeat(starts - np.concatenate(([0], ends[:-1])), counts)
    return base + np.arange(total, dtype=np.int64)


def kahn_fronts(
    num_vertices: int, indptr: np.ndarray, target: np.ndarray, what: str
) -> tuple[np.ndarray, int]:
    """Kahn front index of every vertex of the CSR digraph, and the
    number of fronts; every predecessor of a front-``L`` vertex sits in
    a front ``< L``.  One vectorized peel per front.  Raises
    ``"<what> is cyclic"`` when the peel cannot reach every vertex.
    """
    n = num_vertices
    deg = np.diff(indptr)
    indeg = np.bincount(target, minlength=n)
    front_of = np.zeros(n, dtype=np.int64)
    ready = np.zeros(n, dtype=bool)
    cur = np.nonzero(indeg == 0)[0]
    seen, front = 0, 0
    while cur.size:
        front_of[cur] = front
        seen += cur.size
        t = target[multi_slice(indptr[cur], deg[cur])]
        if t.size == 0:
            break
        indeg -= np.bincount(t, minlength=n)
        # Flag-array dedup: same ascending-unique front as
        # ``np.unique(...)`` without the per-front sort.
        ready[t[indeg[t] == 0]] = True
        cur = np.nonzero(ready)[0]
        ready[cur] = False
        front += 1
    if seen != n:
        raise ReproError(f"{what} is cyclic")
    return front_of, front + 1 if n else 0


def topological_levels(
    num_vertices: int, u: np.ndarray, v: np.ndarray
) -> list[np.ndarray]:
    """Partition vertices into dependency levels (Kahn fronts), each an
    ascending id array.

    All vertices within one level are mutually independent, which is
    what the level-vectorized kernel path exploits.  Raises on cycles.
    """
    indptr, target = csr_by_source(u, num_vertices, v)
    front_of, nfronts = kahn_fronts(
        num_vertices, indptr, target, "topological_levels: graph"
    )
    order = np.argsort(front_of, kind="stable")
    bounds = np.searchsorted(front_of[order], np.arange(nfronts + 1))
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class PatchAngleGraph:
    """Dependency subgraph of one (patch, angle): Listing 1's topology."""

    patch: int
    angle: int
    n_local: int
    init_counts: np.ndarray  # (n_local,) upwind-neighbour counts
    dl_indptr: np.ndarray  # local downwind CSR
    dl_target: np.ndarray
    dr_indptr: np.ndarray  # remote downwind CSR
    dr_patch: np.ndarray
    dr_local: np.ndarray
    vertex_prio: np.ndarray | None = None  # set by the priority module
    # Encoded ready-heap keys ``int(prio[v]) * n_local + v`` (same
    # order as the (prio, v) pair; see SweepPatchProgram.init), set
    # alongside ``vertex_prio`` by the batched priority pass.
    vertex_keys: np.ndarray | None = None

    # Shared by the topology's graphs: recorded whole-patch tasks keyed
    # ``(task_key(), resilient)``, and this angle's interned stream
    # destinations ``{patch: ProgramId}`` (see SweepPatchProgram.compute).
    tasks: dict = field(default_factory=dict, repr=False)
    dst_ids: dict = field(default_factory=dict, repr=False)

    # Lazily-built Python-list adjacency (hot-loop form, cached because
    # the topology is reused across iterations, groups and runs).
    _flat_cache: tuple | None = field(default=None, repr=False)
    _task_key: bytes | None = field(default=None, repr=False)

    @property
    def num_local_edges(self) -> int:
        return len(self.dl_target)

    @property
    def num_remote_edges(self) -> int:
        return len(self.dr_local)

    @property
    def source_vertices(self) -> np.ndarray:
        return np.nonzero(self.init_counts == 0)[0]

    def boundary_vertices(self) -> np.ndarray:
        """Local vertices with at least one remote downwind edge."""
        deg = np.diff(self.dr_indptr)
        return np.nonzero(deg > 0)[0]

    def adjacency_flat(self):
        """Flat-CSR adjacency as plain Python lists (the collect loop's
        working form): ``(lptr, ltgt, rptr, rpat, rloc)``.

        No list/tuple is materialized per vertex: the collect loop
        slices ``ltgt[lptr[v]:lptr[v + 1]]`` lazily and reads remote
        edges by CSR position, whose index *is* the stable ``edge_id``
        - unique per source program and identical across
        re-executions, which is what lets a receiver discard duplicate
        dependency notifications exactly (the fault-tolerant runtime's
        idempotent-delivery contract).  Cached on the graph because
        topology outlives any one sweep.
        """
        if self._flat_cache is None:
            self._flat_cache = (
                self.dl_indptr.tolist(),
                self.dl_target.tolist(),
                self.dr_indptr.tolist(),
                self.dr_patch.tolist(),
                self.dr_local.tolist(),
            )
        return self._flat_cache

    def task_key(self) -> bytes:
        """Digest of everything the pop order of a whole-patch task
        depends on - the downwind tables and the vertex priorities /
        keys, each length-prefixed: equal for two graphs iff they pop
        and emit identically.  Cached; the priority pass resets it."""
        if self._task_key is None:
            digest = hashlib.blake2b()
            for table in (self.dl_indptr, self.dl_target, self.dr_indptr,
                          self.dr_patch, self.dr_local,
                          self.vertex_prio, self.vertex_keys):
                raw = b"" if table is None else table.tobytes()
                digest.update(len(raw).to_bytes(8, "little"))
                digest.update(raw)
            self._task_key = digest.digest()
        return self._task_key


def csr_by_source(
    src_local: np.ndarray, n_local: int, *payloads: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Group edge arrays by source-local index into CSR form."""
    order = np.argsort(src_local, kind="stable")
    ss = src_local[order]
    indptr = np.searchsorted(ss, np.arange(n_local + 1)).astype(np.int64)
    return (indptr, *(p[order] for p in payloads))


class SweepTopology:
    """All per-(patch, angle) sweep graphs for a patch set + quadrature.

    ``graphs[(p, a)]`` is the :class:`PatchAngleGraph`; ``patch_dag[a]``
    the cross-patch dependency digraph (possibly cyclic - Fig. 4's
    zig-zag - which is exactly why patch-programs must be reentrant).
    """

    def __init__(
        self,
        pset: PatchSet,
        quadrature: Quadrature,
        interfaces: InterfaceTable | None = None,
        tol: float = 1e-12,
        validate: bool = False,
        on_cycle: str = "error",
    ):
        if on_cycle not in ("error", "break"):
            raise ReproError(f"unknown on_cycle policy {on_cycle!r}")
        self.pset = pset
        self.quadrature = quadrature
        self.interfaces = (
            interfaces if interfaces is not None else build_interfaces(pset.mesh)
        )
        self.on_cycle = on_cycle
        self.broken_edges = 0  # dependencies severed by cycle breaking
        self.graphs: dict[tuple[int, int], PatchAngleGraph] = {}
        self.patch_dag: dict[int, np.ndarray] = {}  # angle -> (m, 2) patch edges
        self.tasks: dict[tuple[bytes, bool], tuple] = {}  # whole-patch tasks
        self._build(tol, validate)

    @property
    def num_angles(self) -> int:
        return self.quadrature.num_angles

    @property
    def num_vertices(self) -> int:
        return self.pset.mesh.num_cells * self.num_angles

    def graph(self, patch: int, angle: int) -> PatchAngleGraph:
        return self.graphs[(patch, angle)]

    def total_workload(self) -> int:
        """Global number of (cell, angle) vertices to solve."""
        return self.num_vertices

    def _build(self, tol: float, validate: bool) -> None:
        pset = self.pset
        ncells = pset.mesh.num_cells
        cell_patch = pset.cell_patch
        cell_local = pset.cell_local
        patch_sizes = np.array([p.num_cells for p in pset.patches])
        npat = pset.num_patches
        # One global stable sort per angle on the composite
        # (patch, local) key replaces a pair of per-patch argsorts:
        # sorting by ``pu * stride + lu`` with a stable kind yields
        # exactly the (patch, src_local, original-order) edge order the
        # old per-patch ``csr_by_source`` produced, so every CSR array
        # is bitwise identical.
        stride = int(patch_sizes.max()) + 1 if npat else 1

        for a in range(self.num_angles):
            dst_ids: dict = {}
            u, v = directed_edges(
                self.interfaces, self.quadrature.directions[a], tol
            )
            if (validate or self.on_cycle == "break") and not check_acyclic(
                ncells, u, v
            ):
                if self.on_cycle == "break":
                    # Distorted-mesh escape hatch (Pautz-style): sever a
                    # feedback edge set; the severed dependencies are
                    # treated with lagged flux by the iteration.
                    keep = break_cycles(ncells, u, v)
                    self.broken_edges += int((~keep).sum())
                    u, v = u[keep], v[keep]
                else:
                    raise ReproError(
                        f"sweep graph for angle {a} is cyclic; mesh is too "
                        "distorted for a single-direction sweep (pass "
                        "on_cycle='break' to sever feedback edges)"
                    )
            pu, pv = cell_patch[u], cell_patch[v]
            lu, lv = cell_local[u], cell_local[v]

            # Patch-level digraph (unique cross-patch edges).  Unique
            # over the scalar composite key sorts in the same (pu, pv)
            # lexicographic order as ``np.unique(..., axis=0)`` at a
            # fraction of its cost.
            cross = pu != pv
            if np.any(cross):
                ck = pu[cross] * npat + pv[cross]
                uk = np.unique(ck)
                pairs = np.stack([uk // npat, uk % npat], axis=1)
            else:
                pairs = np.zeros((0, 2), dtype=np.int64)
            self.patch_dag[a] = pairs

            # In-degree counts of every patch in one global bincount.
            counts_all = np.bincount(
                pv * stride + lv, minlength=npat * stride
            ).astype(np.int64)

            # All edges in (src patch, src local, original) order.
            order = np.argsort(pu * stride + lu, kind="stable")
            pu_s = pu[order]
            lu_s = lu[order]
            lv_o = lv[order]
            pv_o = pv[order]
            local = pu_s == pv_o
            remote = ~local
            l_lu, l_lv = lu_s[local], lv_o[local]
            r_lu, r_pv, r_lv = lu_s[remote], pv_o[remote], lv_o[remote]
            lb = np.searchsorted(pu_s[local], np.arange(npat + 1))
            rb = np.searchsorted(pu_s[remote], np.arange(npat + 1))

            for p in range(npat):
                nloc = int(patch_sizes[p])
                counts = counts_all[p * stride : p * stride + nloc].copy()
                ls, le = lb[p], lb[p + 1]
                rs, re = rb[p], rb[p + 1]
                self.graphs[(p, a)] = PatchAngleGraph(
                    patch=p,
                    angle=a,
                    n_local=nloc,
                    init_counts=counts,
                    dl_indptr=np.searchsorted(
                        l_lu[ls:le], np.arange(nloc + 1)
                    ).astype(np.int64),
                    dl_target=l_lv[ls:le],
                    dr_indptr=np.searchsorted(
                        r_lu[rs:re], np.arange(nloc + 1)
                    ).astype(np.int64),
                    dr_patch=r_pv[rs:re],
                    dr_local=r_lv[rs:re],
                    tasks=self.tasks,
                    dst_ids=dst_ids,
                )
