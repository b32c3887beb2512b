"""The data-driven sweep patch-program (Listing 1 of the paper).

One program instance sweeps one patch in one ordinate direction.  Its
local context is exactly Listing 1's: an array of unfinished-upwind
counters, a priority queue of ready vertices, and a buffer of outgoing
streams.  ``compute`` collects up to ``grain`` ready vertices (vertex
clustering, Sec. V-C), hands them to the user-supplied solve callback
in dependency order, and aggregates all items bound for the same
target program into a single stream (the communication-combining
benefit of clustering).

The program is fully reentrant: interleaved dependencies between
patches (Fig. 4) simply cause additional scheduled runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from collections.abc import Callable
from dataclasses import replace

import numpy as np

from .._util import ReproError, check_count
from ..core.patch_program import PatchProgram
from ..core.stream import ProgramId, Stream
from .dag import PatchAngleGraph

__all__ = ["SweepPatchProgram", "check_grain"]


def check_grain(grain: int) -> int:
    """The clustering grain, refused where it enters a program or solver:
    a positive integer (not a bool - a run pops ``grain`` vertices, and
    a fractional budget never counts down to zero)."""
    return check_count("grain", grain, "clustering grain")


class SweepPatchProgram(PatchProgram):
    """Listing 1: data-driven parallel sweep of one (patch, angle)."""

    def __init__(
        self,
        graph: PatchAngleGraph,
        cells_global: np.ndarray,
        grain: int = 64,
        solve_fn: Callable[[np.ndarray, int], None] | None = None,
        static_priority: float = 0.0,
        dynamic_priority: bool = False,
        bytes_per_item: int = 8,
        record_clusters: bool = False,
        resilient: bool = False,
        *,
        angle: int,
    ):
        super().__init__(graph.patch, angle)
        self.grain = check_grain(grain)
        self.graph = graph  # shared by the angles of its set
        # The angle's interned ids: this program's own id is the one
        # its upwind neighbours stamp on their streams, so every route
        # lookup of this id hits the dict by identity.
        ids = self._dst_ids = graph.dst_ids.setdefault(angle, {})
        self.id = ids.setdefault(graph.patch, self.id)
        self.cells_global = cells_global
        self.solve_fn = solve_fn
        self.static_priority = static_priority
        self.dynamic_priority = dynamic_priority
        self.bytes_per_item = bytes_per_item
        self.record_clusters = record_clusters
        self.clusters: list[list[int]] = []
        # Resilient mode: remote payloads carry (dst_slot, edge_id)
        # pairs and input() discards edges already applied, making
        # delivery idempotent - required for crash recovery, where a
        # replayed program may re-batch its emissions differently than
        # the execution that was lost.  Edge ids are header metadata;
        # nbytes still reflects the physical data volume.
        self.resilient_input = resilient
        self._applied: dict[int, set[int]] = {}  # src patch -> edge ids

        # Local context (Listing 1, part 1), created by init().
        self._counts: list[int] = []
        self._heap: list = []
        self._outstreams: list[Stream] = []
        self._solved = 0
        # The current execution's work counters (see run_counters).
        self._vertices = self._edges = self._pops = self._inputs = 0

    # -- Listing 1 interface ------------------------------------------------------

    def init(self) -> None:
        # The graph's start table (PatchAngleGraph.set_keys): the heap
        # keys - small ints, far cheaper to sift than ``(prio, v)``
        # pairs - are shared, counters and ready heap copied.
        start = self.graph.start
        if start is None:
            raise ReproError(
                f"sweep graph of patch {self.graph.patch} has no vertex keys "
                "(apply priorities to its topology first)"
            )
        keys, counts, sources = start
        self._keys = keys  # repro: transient - pure function of the graph
        self._counts = counts[:]
        self._heap = sources[:]
        self._solved = 0
        self._outstreams = []
        self.clusters = []
        self._applied = {}

    def input(self, stream: Stream) -> None:
        counts = self._counts
        keys = self._keys
        heap = self._heap
        n = 0
        payload = stream.payload
        if self.resilient_input:
            applied = self._applied.setdefault(stream.src.patch, set())
            for v, e in payload:
                n += 1
                if e in applied:
                    continue  # duplicate delivery (retry or replay)
                applied.add(e)
                c = counts[v] - 1
                counts[v] = c
                if not c:
                    heappush(heap, keys[v])
        else:
            n = len(payload)
            for v in payload:
                c = counts[v] - 1
                counts[v] = c
                if not c:
                    heappush(heap, keys[v])
        self._inputs += n

    def compute(self) -> None:
        heap = self._heap
        if not heap:
            return
        g = self.graph
        n = g.n_local
        # Whole-patch task (DESIGN.md 12.3): nothing solved, the whole
        # patch fits the grain and only the local in-degrees are left on
        # the counters, so this run pops every vertex in an order the
        # graph's tables and keys fix.  The first such run records its
        # outcome on the graph; every later one - of any angle of the
        # graph's set - replays it.
        whole = (not self._solved and n <= self.grain
                 and sum(self._counts) == g.num_local_edges)
        task = g.tasks.get(self.resilient_input) if whole else None
        if task is None:
            popped, outs, edges = self._collect(whole)
            if whole:  # tuple payloads: shareable as they are
                g.tasks[self.resilient_input] = (
                    np.asarray(popped, dtype=np.int32), outs, edges)
        else:
            popped, outs, edges = task
            self._counts = [0] * n  # the pop loop's end state
            self._heap = []

        angle = self.id.task
        nverts = self._solve(popped, angle)
        self._solved += nverts
        if self.record_clusters:
            self.clusters.append(
                popped if isinstance(popped, list) else popped.tolist()
            )

        ids = self._dst_ids
        src = self.id
        per_item = self.bytes_per_item
        outstreams = self._outstreams
        for dp, payload, items in outs:
            dst = ids.get(dp)
            if dst is None:
                dst = ids[dp] = ProgramId(dp, angle)
            outstreams.append(
                Stream(src=src, dst=dst, payload=payload, items=items,
                       nbytes=items * per_item)
            )
        self._vertices, self._edges, self._pops = nverts, edges, len(popped)

    def _solve(self, popped, angle: int) -> int:
        """Hand one run's vertices to the solve callback, in pop order,
        as global cell ids; returns how many cells that solved."""
        if self.solve_fn is not None:
            self.solve_fn(self.cells_global[popped], angle)
        return len(popped)

    def _collect(self, whole: bool) -> tuple:
        """Listing 1's collect loop: pop up to ``grain`` ready vertices.
        Returns ``(popped, [(target patch, payload, items)...], edges)``,
        targets in first-encounter order; a payload is a tuple of
        target-local vertex ids, or of ``(vertex, edge_id)`` pairs when
        resilient.  A ``whole``-patch run is
        recorded and never loops again, so it leaves no adjacency lists
        on the graph."""
        heap = self._heap
        lptr, ltgt, rptr, rpat, rloc = self.graph.adjacency_flat(keep=not whole)
        counts = self._counts
        keys = self._keys
        popped: list[int] = []
        append = popped.append
        out: dict[int, list[int]] = {}
        edges = 0
        n = self.graph.n_local
        budget = self.grain
        while heap and budget:
            budget -= 1
            k = heappop(heap)
            v = k % n
            append(v)
            s, e = lptr[v], lptr[v + 1]
            edges += e - s
            for w in ltgt[s:e]:
                c = counts[w] - 1
                counts[w] = c
                if not c:
                    heappush(heap, keys[w])
        # Remote edges never feed the ready heap, so they are gathered
        # after the pop loop: iterating ``popped`` in order preserves
        # both the first-encounter order of target patches and the
        # per-target item order of the fused form.
        resilient = self.resilient_input
        dp = -1
        items: list = []
        for v in popped:
            rs, re = rptr[v], rptr[v + 1]
            if rs == re:
                continue
            # Remote CSR position doubles as the stable edge_id.
            for j in range(rs, re):
                p = rpat[j]
                if p != dp:
                    items = out.get(p)
                    if items is None:
                        items = out[p] = []
                    dp = p
                items.append((rloc[j], j) if resilient else rloc[j])
            edges += re - rs
        outs = [(p, tuple(items), len(items)) for p, items in out.items()]
        return popped, outs, edges

    def output(self) -> Stream | None:
        if self._outstreams:
            return self._outstreams.pop(0)
        return None

    def drain_outputs(self) -> list[Stream]:
        # Hand the emission buffer over wholesale (same FIFO order as
        # popping via ``output`` until None, without O(n^2) pop(0)s).
        out = self._outstreams
        self._outstreams = []
        return out

    def vote_to_halt(self) -> bool:
        return not self._heap

    # -- runtime hooks --------------------------------------------------------------

    def state_dict(self) -> dict:
        """The mutable local context (Listing 1) as flat copies.

        The graph, the constructor arguments and the key table shared
        from the graph's start table stay out: a restore target is a
        program built over the same graph.  Run counters are read in
        the execution that produced them, so they are zero at every
        capture and stay out too.  Copies are one level deep - heap
        keys, edge ids and recorded clusters are never mutated once
        stored - so capture costs a few C-level list copies, and the
        snapshot shares nothing the program mutates.

        A spent program - whole graph swept, nothing buffered, nothing
        to remember - is the empty dict: it never runs again, and its
        context is a function of the graph.
        """
        assert not (self._vertices or self._edges or self._pops
                    or self._inputs), "run counters outlived their execution"
        if not (self.remaining_workload() or self._heap or self._outstreams
                or self._applied or self.clusters or any(self._counts)):
            return {}
        return {
            "counts": self._counts[:],
            "heap": self._heap[:],
            "solved": self._solved,
            "outstreams": [replace(s) for s in self._outstreams],
            "applied": {p: sorted(e) for p, e in self._applied.items()},
            "clusters": self.clusters[:],
        }

    def load_state_dict(self, d: dict) -> None:
        """Inverse of :meth:`state_dict`; ``d`` is left untouched (it
        may be loaded again after a second failure)."""
        self.init()
        if not d:  # spent: every vertex solved, every counter at zero
            self._counts = [0] * self.graph.n_local
            self._heap = []
            self._solved = self.remaining_workload()  # of a fresh program: all
            return
        self._counts = d["counts"][:]
        self._heap = d["heap"][:]
        self._solved = d["solved"]
        self._outstreams = [replace(s) for s in d["outstreams"]]
        self._applied = {p: set(e) for p, e in d["applied"].items()}
        self.clusters = d["clusters"][:]

    def remaining_workload(self) -> int:
        return self.graph.n_local - self._solved

    def priority(self) -> float:
        p = self.static_priority
        if self.dynamic_priority and self._heap:
            # Prefer programs whose best ready vertex is most urgent
            # (smallest vertex key); scaled to act as a tie-breaker only.
            g = self.graph
            if g.vertex_prio is not None:
                p -= 1e-3 * g.vertex_prio.item(self._heap[0] % g.n_local)
        return p

    def run_counters(self) -> tuple[int, int, int, int]:
        out = (self._vertices, self._edges, self._pops, self._inputs)
        # Read in the execution that produced them, so never captured.
        self._vertices = self._edges = self._pops = self._inputs = 0  # repro: transient
        return out
