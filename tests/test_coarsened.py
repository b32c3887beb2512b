"""Tests for the coarsened graph (Sec. V-E, Theorem 1)."""

import dataclasses
import functools
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.apps import JSNTS, JSNTU
from repro.core import SerialEngine
from repro.core.stream import ProgramId, Stream
from repro.framework import PatchSet
from repro.mesh import cube_structured, disk_tri_mesh
from repro.persist import kill_and_resume, report_fingerprint
from repro.persist.snapshot import FluxArrayState
from repro.runtime import DataDrivenRuntime
from repro.sweep import level_symmetric
from repro.sweep import sweep_program as sp
from repro.sweep.coarsened import (
    CoarsenedPatchGraph,
    CoarsenedSweepProgram,
    build_coarsened,
    coarsened_is_acyclic,
)
from repro.sweep.dag import PatchAngleGraph, csr_by_source
from repro.sweep.sweep_program import SweepPatchProgram
from tests.conftest import make_solver


def _run(progs):
    eng = SerialEngine()
    for p in progs:
        eng.add_program(p)
    return eng.run()


@pytest.fixture()
def cube_cgs(cube8_patches):
    s = make_solver(cube8_patches, grain=10)
    return s, s.record_coarsened()


class TestBuild:
    def test_covers_all_vertices(self, cube_cgs):
        s, cgs = cube_cgs
        for (p, a), cg in cgs.items():
            assert cg.n_vertices == s.topology.graphs[(p, a)].n_local
            assert len(np.unique(cg.cluster_cells)) == cg.n_vertices
            assert cg.cluster_ptr[0] == 0 and cg.cluster_ptr[-1] == cg.n_vertices
            assert len(cg.cluster_ptr) == cg.n_local + 1

    def test_theorem1_acyclic(self, cube_cgs):
        _, cgs = cube_cgs
        assert coarsened_is_acyclic(cgs)

    def test_hand_built_two_cluster_cycles_are_rejected(self):
        """The negative case of Theorem 1's check: two clusters that
        wait on each other, inside one patch and across two."""
        def cg(patch, local, remote):
            """Single-cell clusters; ``local`` lists (cu, cw) edges,
            ``remote`` (cu, target patch, target cv, items)."""
            n_cv = 1 + max(cu for cu, *_ in [(0,), *local, *remote])
            cols = np.asarray(local, dtype=np.int64).reshape(-1, 2).T
            dl_indptr, dl_target = csr_by_source(cols[0], n_cv, cols[1])
            cols = np.asarray(remote, dtype=np.int64).reshape(-1, 4).T
            dr_indptr, dr_patch, dr_local, dr_items = csr_by_source(
                cols[0], n_cv, *cols[1:])
            return CoarsenedPatchGraph(
                patch=patch, angle=0, n_local=n_cv,
                init_counts=np.zeros(n_cv, dtype=np.int64),
                dl_indptr=dl_indptr, dl_target=dl_target,
                dr_indptr=dr_indptr, dr_patch=dr_patch, dr_local=dr_local,
                dr_items=dr_items, cluster_ptr=np.arange(n_cv + 1),
                cluster_cells=np.arange(n_cv),
            )

        chain = {(0, 0): cg(0, [(0, 1)], [(1, 1, 0, 1)]), (1, 0): cg(1, [], [])}
        local = {(0, 0): cg(0, [(0, 1), (1, 0)], [])}
        across = {(0, 0): cg(0, [], [(0, 1, 0, 1)]),
                  (1, 0): cg(1, [], [(0, 0, 0, 1)])}
        assert coarsened_is_acyclic(chain)
        assert not coarsened_is_acyclic(local)
        assert not coarsened_is_acyclic(across)
        assert coarsened_is_acyclic({})

    def test_coarsening_reduces_vertices(self, cube_cgs):
        s, cgs = cube_cgs
        assert all(isinstance(cg, PatchAngleGraph) for cg in cgs.values())
        ncv = sum(cg.n_local for cg in cgs.values())
        nv = sum(cg.n_vertices for cg in cgs.values())
        assert ncv < nv / 2  # grain 10 -> ratio well above 2

    def test_incomplete_recording_rejected(self, cube8_patches):
        s = make_solver(cube8_patches, grain=10)
        programs, _ = s.build_programs(compute=False, record_clusters=True)
        # Do not run: clusters empty.
        with pytest.raises(ReproError):
            build_coarsened(s.topology, programs)

    def test_grain_one_cg_equals_dag(self, cube8_patches):
        """With grain 1 every cluster is a single vertex: CG == DAG."""
        s = make_solver(cube8_patches, grain=1)
        cgs = s.record_coarsened()
        for (p, a), cg in cgs.items():
            g = s.topology.graphs[(p, a)]
            assert cg.n_local == g.n_local
            assert np.all(np.diff(cg.cluster_ptr) == 1)


class TestCGExecution:
    def test_numerics_identical_to_dag(self, cube_cgs):
        s, cgs = cube_cgs
        ref, _, _ = s.sweep_once(mode="fast")
        progs, faces = s.build_coarsened_programs(cgs)
        _run(progs)
        phi, _ = s.accumulate(faces)
        np.testing.assert_array_equal(phi, ref)

    def test_unstructured_numerics(self, disk_patches):
        s = make_solver(disk_patches, sn=2, grain=8)
        cgs = s.record_coarsened()
        assert coarsened_is_acyclic(cgs)
        ref, _, _ = s.sweep_once(mode="fast")
        progs, faces = s.build_coarsened_programs(cgs)
        _run(progs)
        phi, _ = s.accumulate(faces)
        np.testing.assert_array_equal(phi, ref)

    def test_bookkeeping_shrinks(self, cube_cgs):
        """Total graph-op work (pops) drops by the mean cluster size."""
        s, cgs = cube_cgs
        dag_progs, _ = s.build_programs(compute=False)
        _run(dag_progs)
        dag_pops = sum(p.graph.n_local for p in dag_progs)

        cg_progs, _ = s.build_coarsened_programs(cgs, compute=False)
        _run(cg_progs)
        cg_pops = sum(p.graph.n_local for p in cg_progs)
        assert cg_pops < dag_pops / 2

    def test_workload_complete(self, cube_cgs):
        s, cgs = cube_cgs
        progs, _ = s.build_coarsened_programs(cgs, compute=False)
        _run(progs)
        assert all(p.remaining_workload() == 0 for p in progs)

    def test_capture_restores_on_fresh_twins(self, cube_cgs):
        """``state_dict`` (the base program's) holds the counters, never
        the coarsened graph; twins loaded from it (through the codec)
        finish identically, and a drained twin captures ``{}``."""
        from repro.persist import decode, encode

        s, cgs = cube_cgs

        def rounds(progs, pending, n):
            index = {p.id: i for i, p in enumerate(progs)}
            trace = []
            for _ in range(n):
                for i, p in enumerate(progs):
                    box, pending[i] = pending[i], []
                    for stream in box:
                        p.input(stream)
                    p.compute()
                    for o in p.drain_outputs():
                        pending[index[o.dst]].append(o)
                        trace.append((i, o.dst, o.payload, o.items))
                    trace.append(
                        (i, p.run_counters(), p.remaining_workload()))
            return trace

        progs, _ = s.build_coarsened_programs(cgs, compute=False)
        for p in progs:
            p.init()
        pending = [[] for _ in progs]
        rounds(progs, pending, 2)
        assert any(p.remaining_workload() for p in progs)  # a real cut
        snaps = [p.checkpoint() for p in progs]
        assert "state_dict" not in vars(CoarsenedSweepProgram)
        assert all(set(d) == {"counts", "heap", "solved", "outstreams",
                              "applied", "clusters"} for d in snaps if d)
        assert any(snaps)
        frozen = encode(snaps)
        at_cut = [list(b) for b in pending]
        want = rounds(progs, pending, 12)
        assert all(p.remaining_workload() == 0 for p in progs)
        twins, _ = s.build_coarsened_programs(cgs, compute=False)
        for t, d in zip(twins, decode(frozen)):
            t.restore(d)
        assert rounds(twins, at_cut, 12) == want
        assert encode(snaps) == frozen
        assert all(t.checkpoint() == {} for t in twins)

    def test_stream_bytes_preserved(self, cube_cgs):
        """Coarsening saves bookkeeping, not bandwidth: total stream
        bytes equal the DAG sweep's."""
        s, cgs = cube_cgs
        dag_progs, _ = s.build_programs(compute=False)
        dag_stats = _run(dag_progs)
        cg_progs, _ = s.build_coarsened_programs(cgs, compute=False)
        cg_stats = _run(cg_progs)
        assert cg_stats.stream_items == dag_stats.stream_items
        assert cg_stats.streams <= dag_stats.streams


@given(grain=st.integers(1, 40), seed=st.integers(0, 20))
@settings(max_examples=15, deadline=None)
def test_theorem1_property(grain, seed):
    """Theorem 1 as a property: any grain, any decomposition seed,
    the derived coarsened graph is acyclic."""
    mesh = disk_tri_mesh(6)
    pset = PatchSet.from_unstructured(mesh, 20 + seed, nprocs=2)
    s = make_solver(pset, sn=2, grain=grain)
    cgs = s.record_coarsened()
    assert coarsened_is_acyclic(cgs)


# -- structured errors ------------------------------------------------------------


def test_edge_into_a_patch_without_a_coarsened_graph_is_named(cube_cgs):
    _, cgs = cube_cgs
    key, cg = next((k, cg) for k, cg in cgs.items() if len(cg.dr_patch))
    q = int(cg.dr_patch[0])
    partial = {k: v for k, v in cgs.items() if k != (q, key[1])}
    with pytest.raises(ReproError, match=(
            f"coarsened graph of patch {key[0]}, angle {key[1]} points at "
            f"patch {q}, which has no coarsened graph")):
        coarsened_is_acyclic(partial)


def test_zero_cluster_grain_is_refused(cube_cgs):
    _, cgs = cube_cgs
    cg = next(iter(cgs.values()))
    with pytest.raises(ReproError, match="grain must be positive"):
        CoarsenedSweepProgram(cg, np.arange(cg.n_vertices), cv_grain=0)


def test_one_program_one_graph_type():
    assert issubclass(CoarsenedPatchGraph, PatchAngleGraph)
    assert SweepPatchProgram in CoarsenedSweepProgram.__mro__
    assert not set(vars(CoarsenedSweepProgram)) & {
        "init", "input", "compute", "output", "drain_outputs", "vote_to_halt",
        "state_dict", "load_state_dict"}


# -- (a) the subclass against an interpreter of the list-of-lists program ----------


class ListOfListsProgram:
    """The coarsened program as it was before it became a
    :class:`SweepPatchProgram`: Listing 1 over per-cluster Python lists,
    one heap of cluster indices.  Reference only - reads a
    :class:`CoarsenedPatchGraph` through plain slices."""

    def __init__(self, cg, cv_grain, bytes_per_item):
        def cut(ptr, *cols):
            return [list(zip(*(c[a:b].tolist() for c in cols)))
                    for a, b in zip(ptr[:-1], ptr[1:])]

        self.sizes = np.diff(cg.cluster_ptr).tolist()
        self.local_adj = cut(cg.dl_indptr, cg.dl_target)
        self.remote_adj = cut(cg.dr_indptr, cg.dr_patch, cg.dr_local, cg.dr_items)
        self.cv_grain, self.per_item, self.angle = cv_grain, bytes_per_item, cg.angle
        self.counts = cg.init_counts.tolist()
        self.heap = sorted(c for c, k in enumerate(self.counts) if k == 0)
        self.solved = self.input_items = 0
        self.last = (0, 0, 0, 0)

    def input(self, stream):
        for c in stream.payload:
            self.counts[c] -= 1
            if self.counts[c] == 0:
                heappush(self.heap, c)
            self.input_items += 1

    def compute(self):
        """Returns the emitted ``(dst patch, payload, items, nbytes)``."""
        popped, out, out_items, edges = [], {}, {}, 0
        while self.heap and len(popped) < self.cv_grain:
            c = heappop(self.heap)
            popped.append(c)
            for (cw,) in self.local_adj[c]:
                self.counts[cw] -= 1
                edges += 1
                if self.counts[cw] == 0:
                    heappush(self.heap, cw)
            for q, dcv, items in self.remote_adj[c]:
                out.setdefault(q, []).append(dcv)
                out_items[q] = out_items.get(q, 0) + items
                edges += 1
        nverts = sum(self.sizes[c] for c in popped)
        self.solved += nverts
        self.last = (nverts, edges, len(popped), self.input_items)
        self.input_items = 0
        return [(q, cvs, out_items[q], out_items[q] * self.per_item)
                for q, cvs in out.items()]


@functools.lru_cache(maxsize=None)
def _recorded_cgs(kind, grain):
    if kind == "cube":
        pset = PatchSet.from_structured(cube_structured(8, length=4.0), (4, 4, 4), nprocs=2)
    else:
        pset = PatchSet.from_unstructured(disk_tri_mesh(6), 20, nprocs=2)
    return list(make_solver(pset, sn=2, grain=grain).record_coarsened().items())


@given(kind=st.sampled_from(["cube", "disk"]), grain=st.integers(1, 40),
       pick=st.integers(0, 10_000), cv_grain=st.sampled_from([1, 2, 5, 10**9]),
       seed=st.integers(0, 2**32 - 1), eager=st.booleans())
@settings(max_examples=60, deadline=None)
def test_subclass_equals_the_list_of_lists_interpreter(
        kind, grain, pick, cv_grain, seed, eager):
    cgs = _recorded_cgs(kind, grain)
    (p, a), cg = cgs[pick % len(cgs)]
    rng = np.random.default_rng(seed)
    # One item per upwind remote coarse edge, in random arrival batches.
    arrivals = rng.permutation(np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [up.dr_local[up.dr_patch == p] for (_, b), up in cgs if b == a]))
    cuts = np.sort(rng.integers(0, len(arrivals) + 1, size=rng.integers(0, 4)))
    batches = [tuple(b.tolist()) for b in np.split(arrivals, cuts) if len(b)]

    solved = []
    prog = CoarsenedSweepProgram(
        cg, np.arange(1000, 1000 + cg.n_vertices), cv_grain=cv_grain,
        solve_fn=lambda cells, angle: solved.append((cells.tolist(), angle)),
        static_priority=3.0, bytes_per_item=24)
    ref = ListOfListsProgram(cg, cv_grain, 24)
    prog.init()

    def same_state():
        assert prog.vote_to_halt() == (not ref.heap)
        assert prog.remaining_workload() == cg.n_vertices - ref.solved
        assert prog.priority() == 3.0

    def run():
        prog.compute()
        want = ref.compute()
        got = prog.drain_outputs()
        assert [(s.dst, s.payload, s.items, s.nbytes) for s in got] == [
            (ProgramId(q, a), tuple(cvs), items, nbytes)
            for q, cvs, items, nbytes in want]
        assert all(s.src == ProgramId(p, a) and type(s.payload) is tuple
                   for s in got)
        assert prog.run_counters() == ref.last
        same_state()

    same_state()
    if eager:
        run()
    for batch in batches:
        stream = Stream(src=ProgramId(99, a), dst=prog.id, payload=batch,
                        items=len(batch))
        prog.input(dataclasses.replace(stream))
        ref.input(stream)
        same_state()
        if eager:
            run()
    run()
    while ref.heap:
        run()
    assert prog.remaining_workload() == 0 and prog.checkpoint() == {}
    # Every cell once, cluster by cluster in recorded order.
    assert all(angle == a for _, angle in solved)
    cells = [c for run_cells, _ in solved for c in run_cells]
    assert sorted(cells) == list(range(1000, 1000 + cg.n_vertices))
    ptr = cg.cluster_ptr.tolist()
    runs = {tuple(1000 + cg.cluster_cells[s:e]) for s, e in zip(ptr, ptr[1:])}
    at = 0
    while at < len(cells):  # the cells split back into whole clusters
        size = next(len(r) for r in runs if r[0] == cells[at])
        assert tuple(cells[at:at + size]) in runs
        at += size


# -- (b), (c) DES level: replayed coarse sweeps, killed coarse sweeps --------------


def _coarse_app(cores=24):
    return JSNTS.kobayashi(8, total_cores=cores, patch_shape=(4, 4, 4),
                           quadrature=level_symmetric(4), grain=10)


def _coarse_sweep(app, cgs, cores=24):
    progs, faces = app.solver.build_coarsened_programs(cgs)
    rep = DataDrivenRuntime(cores, machine=app.machine).run(
        progs, app.pset.patch_proc)
    phi, _ = app.solver.accumulate(faces)
    return rep, phi


@pytest.mark.parametrize("build, mixed", [
    (_coarse_app, False),  # every patch holds all its upwind data at its first run
    (lambda: JSNTU.reactor(10, total_cores=24, patch_size=60, grain=16,
                           groups=1), True),
], ids=["koba", "reactor"])
def test_second_coarse_sweep_replays_the_whole_graph_tasks(build, mixed, monkeypatch):
    app = build()
    cgs = app.solver.record_coarsened()
    ref = app.solver.sweep_once()[0]
    first, phi1 = _coarse_sweep(app, cgs)
    whole = {key for key, cg in cgs.items() if cg.tasks}
    assert whole and (len(whole) < len(cgs)) == mixed
    inside = []
    real_compute = SweepPatchProgram.compute

    def compute(self):
        inside.append((self.patch, self.task))
        try:
            real_compute(self)
        finally:
            inside.pop()

    def no_pop_in_a_whole_program(heap):
        assert not inside or inside[-1] not in whole, f"heappop in {inside}"
        return heappop(heap)

    monkeypatch.setattr(SweepPatchProgram, "compute", compute)
    monkeypatch.setattr(sp, "heappop", no_pop_in_a_whole_program)
    second, phi2 = _coarse_sweep(app, cgs)
    assert report_fingerprint(first, phi1) == report_fingerprint(second, phi2)
    assert np.array_equal(phi1, ref) and np.array_equal(phi2, ref)
    assert {key for key, cg in cgs.items() if cg.tasks} == whole


@pytest.mark.parametrize("frac", [0.3, 0.6, 0.9])
def test_kill_and_resume_of_a_coarse_compute_sweep(frac, tmp_path):
    cores = 24
    app = _coarse_app(cores)
    cgs = app.solver.record_coarsened()
    straight, phi_straight = _coarse_sweep(app, cgs, cores)

    def factory():
        progs, faces = app.solver.build_coarsened_programs(cgs)
        factory.faces = faces
        return (DataDrivenRuntime(cores, machine=app.machine), progs,
                app.pset.patch_proc, FluxArrayState(faces))

    rep, _mgr, killed = kill_and_resume(
        factory, kill_at=int(frac * straight.events),
        every=max(20, straight.events // 8), workdir=tmp_path,
    )
    assert killed
    phi, _ = app.solver.accumulate(factory.faces)
    assert report_fingerprint(rep, phi) == report_fingerprint(straight, phi_straight)
