"""Sweep dependency DAGs (Sec. II-C, V-A).

For every ordinate direction, the upwind/downwind relation between
face-adjacent cells induces a directed acyclic graph whose vertices are
``(cell, angle)`` pairs; a sweep is a topological traversal of that
graph.  This module builds, per patch and *angle set* (the angles whose
upwind relation is the same, :func:`angle_sets`), the structures of
Listing 1's local context:

* initial in-degree counts (number of upwind neighbours per vertex),
* downwind local edges (CSR of patch-local target indices), and
* downwind remote edges (CSR of target patch + target local index),

all derived with vectorized NumPy group-bys so million-edge topologies
build in seconds.  The structures are immutable and shared by every
angle of the set, sweep iteration, energy group and runtime backend.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .._util import ReproError
from ..framework.connectivity import InterfaceTable, build_interfaces
from ..framework.patch import PatchSet
from .quadrature import Quadrature

__all__ = [
    "directed_edges",
    "angle_sets",
    "check_acyclic",
    "multi_slice",
    "csr_by_source",
    "kahn_fronts",
    "topological_levels",
    "strong_components",
    "condensation_fronts",
    "heap_keys",
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


def angle_sets(
    directions: np.ndarray, *normals: np.ndarray, tol: float
) -> list[list[int]]:
    """Angles grouped by the sign pattern of ``normal . direction``
    (``> tol`` / ``< -tol`` / parallel, as :func:`directed_edges`) over
    every face of ``normals``; sets in first-angle order.

    The dependency edges, every :class:`PatchAngleGraph` table, the
    patch digraph, the priorities and a kernel's index tables are
    functions of that pattern alone, so one set shares one copy of
    each - and this is the only place that decides which angles do.
    """
    sets: dict[bytes, list[int]] = {}
    for a, d in enumerate(np.asarray(directions, dtype=np.float64)):
        # One product per table, as its consumers form it: bit-equal dots.
        dot = np.concatenate([n @ d[: n.shape[1]] for n in normals])
        code = (dot > tol).astype(np.int8) - (dot < -tol)
        sets.setdefault(code.tobytes(), []).append(a)
    return list(sets.values())


def check_acyclic(num_vertices: int, u: np.ndarray, v: np.ndarray) -> bool:
    """True iff the edge set is a DAG (the Kahn peel reaches every vertex)."""
    try:
        topological_levels(num_vertices, u, v)
    except ReproError:
        return False
    return True


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
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Kahn fronts of the CSR digraph: ``(front_of, order, bounds)``
    with ``front_of[v]`` vertex ``v``'s front, ``order`` the vertices
    front by front (ascending ids within a front, so it equals the
    stable argsort of ``front_of``) and front ``L`` at
    ``order[bounds[L]:bounds[L + 1]]``; every predecessor of a
    front-``L`` vertex sits in a front ``< L``.  One vectorized peel
    per front.  Raises ``"<what> is cyclic"`` when the peel cannot
    reach every vertex.
    """
    n = num_vertices
    deg = np.diff(indptr)
    indeg = np.bincount(target, minlength=n)
    front_of = np.zeros(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    bounds = [0]
    ready = np.zeros(n, dtype=bool)
    cur = np.nonzero(indeg == 0)[0]
    seen = 0
    while cur.size:
        front_of[cur] = len(bounds) - 1
        order[seen : seen + cur.size] = cur
        seen += cur.size
        bounds.append(seen)
        t = target[multi_slice(indptr[cur], deg[cur])]
        if t.size == 0:
            break
        indeg -= np.bincount(t, minlength=n)
        # Flag-array dedup: same ascending-unique front as
        # ``np.unique(...)`` without the per-front sort.
        ready[t[indeg[t] == 0]] = True
        cur = np.nonzero(ready)[0]
        ready[cur] = False
    if seen != n:
        raise ReproError(f"{what} is cyclic")
    return front_of, order, bounds


def topological_levels(
    num_vertices: int, u: np.ndarray, v: np.ndarray
) -> list[np.ndarray]:
    """Partition vertices into dependency levels (Kahn fronts), each an
    ascending id array.

    All vertices within one level are mutually independent, which is
    what the level-vectorized kernel path exploits.  Raises on cycles.
    """
    indptr, target = csr_by_source(u, num_vertices, v)
    _, order, bounds = kahn_fronts(
        num_vertices, indptr, target, "topological_levels: graph"
    )
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def strong_components(
    num_vertices: int, indptr: np.ndarray, target: np.ndarray
) -> tuple[int, np.ndarray]:
    """Strongly connected components of the CSR digraph: ``(ncomp,
    comp)`` with ``comp[v]`` vertex ``v``'s component, numbered sinks
    first (the order Tarjan's algorithm closes them in).

    Tarjan's algorithm with an explicit call stack (no recursion limit)
    over Python lists: the patch digraphs it serves have at most a few
    thousand vertices, condensed once per angle set.  A vertex is on
    Tarjan's stack exactly while it is visited and has no component.
    """
    n = num_vertices
    ptr, tgt = indptr.tolist(), target.tolist()
    nxt = ptr[:-1]  # each vertex's next unexplored edge
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    count = ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        call = [root]
        while call:
            v = call[-1]
            i = nxt[v]
            if i < ptr[v + 1]:
                nxt[v] = i + 1
                w = tgt[i]
                if index[w] < 0:  # tree edge: descend
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    call.append(w)
                elif comp[w] < 0 and index[w] < low[v]:  # w on the stack
                    low[v] = index[w]
                continue
            call.pop()
            if call and low[v] < low[call[-1]]:
                low[call[-1]] = low[v]
            if low[v] == index[v]:  # v roots a component: pop it
                w = -1
                while w != v:
                    w = stack.pop()
                    comp[w] = ncomp
                ncomp += 1
    return ncomp, np.array(comp, dtype=np.int64)


def condensation_fronts(
    num_vertices: int, edges: np.ndarray, reverse: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strongly connected components of a (possibly cyclic) digraph
    (:func:`strong_components`) and the Kahn fronts of its
    condensation: ``(comp, front, cedges)`` with ``comp[v]`` the
    component of vertex ``v``, ``front[c]`` component ``c``'s longest
    distance from a source (from a sink with ``reverse``) and
    ``cedges`` the distinct ``(m, 2)`` component edges.  Component
    labels are arbitrary; every caller reads them only through
    ``comp``, ``front`` and ``cedges``.
    """
    u, v = edges[:, 0], edges[:, 1]
    ncomp, comp = strong_components(num_vertices, *csr_by_source(u, num_vertices, v))
    cu, cv = comp[u], comp[v]
    cross = cu != cv
    ck = np.unique(cu[cross].astype(np.int64) * ncomp + cv[cross])
    cedges = np.stack([ck // ncomp, ck % ncomp], axis=1)
    src, dst = (cedges[:, 1], cedges[:, 0]) if reverse else (cedges[:, 0], cedges[:, 1])
    front, _, _ = kahn_fronts(ncomp, *csr_by_source(src, ncomp, dst), "condensation")
    return comp, front, cedges


def heap_keys(prio: np.ndarray | None, n: int) -> np.ndarray:
    """Ready-heap keys of ``n`` vertices: integers that order as the
    pair ``(prio[v], v)`` and decode as ``key % n`` (exact for negative
    priorities too).  Integer-valued priorities - every strategy's,
    incl. the exact ``_FAR`` sentinel - encode as ``int(prio[v]) * n +
    v``; any others by their rank."""
    v = np.arange(n, dtype=np.int64)
    if prio is None:
        return v
    if not np.array_equal(prio, np.trunc(prio)):
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((v, prio))] = v
        prio = rank
    return prio.astype(np.int64) * n + v


@dataclass
class PatchAngleGraph:
    """Dependency subgraph of one (patch, angle set): Listing 1's
    topology.  A topology maps every ``(patch, angle)`` of the set to
    this one object, so its tables are read-only (and int32: their
    values are patch-local)."""

    patch: int
    n_local: int
    init_counts: np.ndarray  # (n_local,) upwind-neighbour counts
    dl_indptr: np.ndarray  # local downwind CSR
    dl_target: np.ndarray
    dr_indptr: np.ndarray  # remote downwind CSR
    dr_patch: np.ndarray
    dr_local: np.ndarray
    vertex_prio: np.ndarray | None = None  # set by the priority module
    # Encoded ready-heap keys ``int(prio[v]) * n_local + v`` (same
    # order as the (prio, v) pair), installed by :meth:`set_keys`.
    vertex_keys: np.ndarray | None = None

    # The topology's interned stream destinations, one ``{patch:
    # ProgramId}`` table per angle (see SweepPatchProgram.compute).
    dst_ids: dict = field(default_factory=dict, repr=False)

    # Derived from the tables above, so never carried over by
    # ``dataclasses.replace``: the recorded whole-patch task per
    # ``resilient`` flag (DESIGN.md 12.3; the priority pass clears it)
    # and the Python-list adjacency kept for partial runs (hot-loop form).
    tasks: dict = field(default_factory=dict, init=False, repr=False)
    _flat_cache: tuple | None = field(default=None, init=False, repr=False)
    # Every program's start state, ``(keys, counts, sources)``: see
    # :meth:`set_keys`.
    start: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.vertex_keys is not None:  # a ``dataclasses.replace`` copy
            self.set_keys(self.vertex_keys)

    @property
    def num_local_edges(self) -> int:
        return len(self.dl_target)

    @property
    def num_remote_edges(self) -> int:
        return len(self.dr_local)

    @property
    def source_vertices(self) -> np.ndarray:
        return np.nonzero(self.init_counts == 0)[0]

    def set_keys(self, keys: np.ndarray) -> None:
        """Install the ready-heap keys and the start table derived from
        them, and clear the whole-patch tasks (new keys, new pop order).

        ``start = (keys, counts, sources)``: the keys as a compact
        ``array('q')`` (shared by every program over the graph), the
        initial in-degrees as a list and the keys of the local sources,
        sorted (a valid heap) - so a program's ``init()`` copies two
        lists and calls no numpy.  ``vertex_keys`` is a read-only view
        of that same ``array('q')``, so the graph holds its keys once
        and the caller's ``keys`` are not kept.  Called by the batched
        priority pass, the coarsened build and a keyed graph's
        ``__post_init__``; a graph without keys cannot start a
        program."""
        held = array("q", np.ascontiguousarray(keys, dtype=np.int64).tobytes())
        view = np.frombuffer(held, dtype=np.int64)
        view.flags.writeable = False
        self.vertex_keys = view
        self.start = (
            held,
            self.init_counts.tolist(),
            np.sort(view[self.init_counts == 0]).tolist(),
        )
        self.tasks.clear()

    def boundary_vertices(self) -> np.ndarray:
        """Local vertices with at least one remote downwind edge."""
        deg = np.diff(self.dr_indptr)
        return np.nonzero(deg > 0)[0]

    def adjacency_flat(self, keep: bool = True):
        """Flat-CSR adjacency as plain Python lists (the collect loop's
        working form): ``(lptr, ltgt, rptr, rpat, rloc)``.

        No list/tuple is materialized per vertex: the collect loop
        slices ``ltgt[lptr[v]:lptr[v + 1]]`` lazily and reads remote
        edges by CSR position, whose index *is* the stable ``edge_id``
        - unique per source program and identical across
        re-executions, which is what lets a receiver discard duplicate
        dependency notifications exactly (the fault-tolerant runtime's
        idempotent-delivery contract).  With ``keep`` the lists are
        cached on the graph, for the partial runs that read them again
        and again; a whole-patch recording run passes ``keep=False``,
        since every later whole-patch run replays its task instead.
        """
        flat = self._flat_cache
        if flat is None:
            flat = (
                self.dl_indptr.tolist(),
                self.dl_target.tolist(),
                self.dr_indptr.tolist(),
                self.dr_patch.tolist(),
                self.dr_local.tolist(),
            )
            if keep:
                self._flat_cache = flat
        return flat


def csr_by_source(
    src_local: np.ndarray, n_local: int, *payloads: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Group edge arrays by source-local index into CSR form."""
    order = np.argsort(src_local, kind="stable")
    ss = src_local[order]
    indptr = np.searchsorted(ss, np.arange(n_local + 1)).astype(np.int64)
    return (indptr, *(p[order] for p in payloads))


_INT32_MAX = int(np.iinfo(np.int32).max)


def _int32_tables(top: int, *tables: np.ndarray) -> list[np.ndarray]:
    """``tables`` as read-only int32 copies (shared by an angle set's
    graphs); ``top`` bounds every value they hold, and past int32 the
    build is refused rather than wrapped."""
    if top > _INT32_MAX:
        raise ReproError(
            f"sweep topology value {top} does not fit the int32 patch-local "
            "tables; split the mesh into smaller patches"
        )
    out = []
    for table in tables:
        table = table.astype(np.int32)
        table.flags.writeable = False
        out.append(table)
    return out


class SweepTopology:
    """All per-(patch, angle) sweep graphs for a patch set + quadrature.

    ``graphs[(p, a)]`` is the :class:`PatchAngleGraph` - one object per
    (patch, angle set), shared by the set's angles (``angle_sets``, from
    :func:`angle_sets`); ``patch_dag[a]`` the cross-patch dependency
    digraph (possibly cyclic - Fig. 4's zig-zag - which is exactly why
    patch-programs must be reentrant), one array per set.
    """

    def __init__(
        self,
        pset: PatchSet,
        quadrature: Quadrature,
        interfaces: InterfaceTable | None = None,
        tol: float = 1e-12,
        validate: bool = False,
    ):
        self.pset = pset
        self.quadrature = quadrature
        self.interfaces = (
            interfaces if interfaces is not None else build_interfaces(pset.mesh)
        )
        self.graphs: dict[tuple[int, int], PatchAngleGraph] = {}
        self.patch_dag: dict[int, np.ndarray] = {}  # angle -> (m, 2) patch edges
        # angle -> {patch: ProgramId}: interned stream destinations.
        self.dst_ids: dict[int, dict] = {}
        self._build(tol, validate)

    @property
    def num_angles(self) -> int:
        return self.quadrature.num_angles

    @property
    def num_vertices(self) -> int:
        return self.pset.mesh.num_cells * self.num_angles

    def graph(self, patch: int, angle: int) -> PatchAngleGraph:
        if (patch, angle) not in self.graphs:
            raise ReproError(
                f"no sweep graph for patch {patch!r}, angle {angle!r}: patches are "
                f"0..{self.pset.num_patches - 1}, angles 0..{self.num_angles - 1}"
            )
        return self.graphs[(patch, angle)]

    def _build(self, tol: float, validate: bool) -> None:
        pset = self.pset
        ncells = pset.mesh.num_cells
        cell_patch = pset.cell_patch
        cell_local = pset.cell_local
        patch_sizes = [p.num_cells for p in pset.patches]
        npat = pset.num_patches
        # One global stable sort per angle set on the composite
        # (patch, local) key replaces a pair of per-patch argsorts:
        # sorting by ``pu * stride + lu`` with a stable kind yields
        # exactly the (patch, src_local, original-order) edge order the
        # old per-patch ``csr_by_source`` produced, so every CSR array
        # is bitwise identical.
        stride = max(patch_sizes) + 1 if npat else 1

        # Keys go in in angle order, then the sets fill them: the order
        # of ``graphs`` is the order programs are built in.
        na = range(self.num_angles)
        self.patch_dag = dict.fromkeys(na)
        self.graphs = dict.fromkeys((p, a) for a in na for p in range(npat))
        self.angle_sets = angle_sets(
            self.quadrature.directions, self.interfaces.normal, tol=tol
        )
        for angles in self.angle_sets:
            u, v = directed_edges(
                self.interfaces, self.quadrature.directions[angles[0]], tol
            )
            if validate and not check_acyclic(ncells, u, v):
                raise ReproError(
                    f"sweep graph for angles {angles} is cyclic; mesh is "
                    "too distorted for a single-direction sweep"
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
            self.patch_dag.update(dict.fromkeys(angles, pairs))  # one per set

            # In-degree counts of every patch in one global bincount.
            counts_all = np.bincount(pv * stride + lv, minlength=npat * stride)

            # All edges in (src patch, src local, original) order, and
            # every patch's row pointers at once (``Patcher`` layout):
            # ``ptr[p * stride + i]`` counts the edges before (p, i), so
            # patch ``p``'s CSR is ``ptr[s0:s0+n+1] - ptr[s0]``.
            key = pu * stride + lu
            order = np.argsort(key, kind="stable")
            lo, ro = order[~cross[order]], order[cross[order]]
            l_lv, r_pv, r_lv = lv[lo], pv[ro], lv[ro]
            lptr, rptr = (
                np.concatenate(([0], np.cumsum(
                    np.bincount(key[m], minlength=npat * stride))))
                for m in (~cross, cross)
            )
            lb, rb = lptr[::stride].tolist(), rptr[::stride].tolist()
            lrel = lptr[:-1] - np.repeat(lptr[:-1:stride], stride)
            rrel = rptr[:-1] - np.repeat(rptr[:-1:stride], stride)
            # Every value is patch-local - a count or row pointer within
            # one patch, a local id below the largest patch size
            # (``stride - 1``), a patch id below ``npat`` - so the
            # tables are kept at int32.
            counts_all, lrel, rrel, l_lv, r_pv, r_lv = _int32_tables(
                max(int(counts_all.max(initial=0)), int(lrel.max(initial=0)),
                    int(rrel.max(initial=0)), stride - 2, npat - 1),
                counts_all, lrel, rrel, l_lv, r_pv, r_lv,
            )

            for p, nloc in enumerate(patch_sizes):
                s0 = p * stride
                g = PatchAngleGraph(
                    patch=p,
                    n_local=nloc,
                    init_counts=counts_all[s0 : s0 + nloc],
                    dl_indptr=lrel[s0 : s0 + nloc + 1],
                    dl_target=l_lv[lb[p] : lb[p + 1]],
                    dr_indptr=rrel[s0 : s0 + nloc + 1],
                    dr_patch=r_pv[rb[p] : rb[p + 1]],
                    dr_local=r_lv[rb[p] : rb[p + 1]],
                    dst_ids=self.dst_ids,
                )
                for a in angles:
                    self.graphs[(p, a)] = g
