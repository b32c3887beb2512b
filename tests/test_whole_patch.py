"""Whole-patch tasks (DESIGN.md 12.3): a sweep program that holds all
its upwind data replays its (patch, angle) sweep from a table recorded
once on the graph its angle set shares.

Replay must be indistinguishable from the heap loop that recorded it -
same popped order, streams, counters, votes, priorities and captured
state after every run - at the program level under random arrival
orders (a) and at the DES level under clean, faulty and killed runs
(b); it must really skip the heap and the adjacency lists, and record
nothing where the rule does not hold (c); tasks are shared through the
one (patch, angle set) graph, read-only and cleared when priorities
change (d), and small (e).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.apps import JSNTS, JSNTU
from repro.core.stream import ProgramId, Stream
from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.persist import kill_and_resume, report_fingerprint
from repro.persist.codec import encode
from repro.persist.snapshot import FluxArrayState
from repro.runtime import CrashFault, DataDrivenRuntime, FaultPlan
from repro.sweep import SweepTopology, apply_priorities, level_symmetric
from repro.sweep import sweep_program as sp
from repro.sweep.dag import PatchAngleGraph, csr_by_source, heap_keys
from repro.sweep.sweep_program import SweepPatchProgram

# -- (a) program level: warm store == empty store, after every run ---------------


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 9))
    # Local DAG: edges go forward in a random topological ranking.
    rank = draw(st.permutations(range(n)))
    pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    local = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
        if pairs else []
    )
    # Remote downwind edges (source vertex, target patch, target local).
    remote = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, 3), st.integers(0, 7)),
        max_size=2 * n,
    ))
    # One upwind item per remote in-edge: its target vertex.
    upwind = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    order = draw(st.permutations(range(len(upwind))))
    cuts = sorted(draw(st.lists(st.integers(0, len(upwind)), max_size=4)))
    return dict(
        n=n, local=local, remote=remote, upwind=upwind,
        batches=[list(order[a:b]) for a, b in
                 zip([0] + cuts, cuts + [len(upwind)]) if a < b],
        prio=draw(st.sampled_from(["none", "keys", "int", "tuple"])),
        vals=draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
        resilient=draw(st.booleans()),
        grain=draw(st.sampled_from([1000, n, n + 1, max(1, n - 1), 1])),
        # Run after every arrival (the runtime's way), or only once
        # everything is in (the corner cell arrives last).
        eager=draw(st.booleans()),
        redeliver=draw(st.booleans()),
    )


def _columns(rows, width) -> list[np.ndarray]:
    return list(np.asarray(rows, dtype=np.int64).reshape(-1, width).T)


def _graph(sc) -> PatchAngleGraph:
    n = sc["n"]
    lsrc, ltgt = _columns(sc["local"], 2)
    dl_indptr, dl_target = csr_by_source(lsrc, n, ltgt)
    rsrc, rpatch, rlocal = _columns(sc["remote"], 3)
    dr_indptr, dr_patch, dr_local = csr_by_source(rsrc, n, rpatch, rlocal)
    upwind, = _columns(sc["upwind"], 1)
    g = PatchAngleGraph(
        patch=0, n_local=n,
        init_counts=np.bincount(ltgt, minlength=n)
        + np.bincount(upwind, minlength=n),
        dl_indptr=dl_indptr, dl_target=dl_target,
        dr_indptr=dr_indptr, dr_patch=dr_patch, dr_local=dr_local,
    )
    vals = np.asarray(sc["vals"], dtype=np.float64)
    if sc["prio"] == "tuple":  # non-integer: keyed by the rank of (prio, vertex)
        g.vertex_prio = vals / 4 + 0.125
    elif sc["prio"] != "none":
        g.vertex_prio = vals
    g.set_keys(heap_keys(g.vertex_prio, n))  # "keys" and "int" encode alike
    return g


def _streams(sc) -> list[Stream]:
    """The upwind items as arrival batches (edge id = item index)."""
    out = []
    for idx in sc["batches"]:
        rows = tuple((sc["upwind"][e], e) if sc["resilient"] else sc["upwind"][e]
                     for e in idx)
        out.append(Stream(
            src=ProgramId(7, 3), dst=ProgramId(0, 3), items=len(rows),
            payload=rows,
        ))
    if sc["resilient"] and sc["redeliver"] and out:
        out.append(dataclasses.replace(out[0]))  # a retransmitted duplicate
    return out


def _program(sc, graph) -> SweepPatchProgram:
    return SweepPatchProgram(
        graph, cells_global=np.arange(100, 100 + sc["n"]), grain=sc["grain"],
        static_priority=5.0, dynamic_priority=True, bytes_per_item=24,
        record_clusters=True, resilient=sc["resilient"], angle=3,
    )


def _drive(prog, streams, eager) -> list:
    """Everything observable of ``prog``, after every input and run."""
    seen = []

    def run():
        prog.compute()
        counters = prog.run_counters()  # read in the execution, as the runtime does
        before = encode(prog.state_dict())
        emitted = [
            (s.src, s.dst, type(s.payload), s.payload, s.items, s.nbytes)
            for s in prog.drain_outputs()
        ]
        seen.append((emitted, counters, prog.vote_to_halt(),
                     prog.priority(), before, encode(prog.state_dict())))

    prog.init()
    if eager:
        run()
    for s in streams:
        prog.input(dataclasses.replace(s))
        seen.append((prog.vote_to_halt(), prog.priority()))
        if eager:
            run()
    run()
    while not prog.vote_to_halt():
        run()
    assert prog.remaining_workload() == 0
    seen.append(prog.clusters)
    return seen


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_program_over_warm_store_equals_program_over_empty_store(sc):
    warm, empty = _graph(sc), _graph(sc)
    _drive(_program(sc, warm), _streams(sc), eager=False)
    fits = sc["n"] <= sc["grain"]
    # Recorded iff the patch fits the grain, under the program's flag.
    assert list(warm.tasks) == [sc["resilient"]] * fits
    warm._flat_cache = None
    got = _drive(_program(sc, warm), _streams(sc), sc["eager"])
    want = _drive(_program(sc, empty), _streams(sc), sc["eager"])
    assert got == want
    assert len(warm.tasks) == fits and len(empty.tasks) <= fits
    # A graph nobody ran the loop on (again) has no adjacency lists.
    replayed = warm._flat_cache is None
    event(f"replayed: {replayed}")
    assert replayed or sc["eager"] or not fits


# -- DES level ---------------------------------------------------------------------

QUAD = level_symmetric(4)  # three angles per octant share their tables
MODES = [("hybrid", 12), ("hybrid", 24), ("hybrid", 48),
         ("mpi_only", 2), ("mpi_only", 4), ("mpi_only", 8)]


def _koba():
    """Kobayashi 8^3 in 4^3 patches: 8 patches x 24 angles, patch <= grain."""
    return JSNTS.kobayashi(8, patch_shape=(4, 4, 4), quadrature=QUAD)


def _patch_proc(app, cores, mode="hybrid"):
    return app.pset.assign(app.machine.layout(cores, mode).nprocs)


def _recorded(topo) -> dict:
    """Every recorded task, ``{(patch, first angle of the set,
    resilient): task}`` - each shared graph looked at once."""
    return {
        (p, angles[0], resilient): task
        for angles in topo.angle_sets
        for p in range(topo.pset.num_patches)
        for resilient, task in topo.graph(p, angles[0]).tasks.items()
    }


def _sweep(app, cores, mode="hybrid", resilient=False, faults=None):
    """One compute=True DES sweep: (report, flux, recorded clusters)."""
    s = app.solver
    progs, faces = s.build_programs(record_clusters=True, resilient=resilient)
    rt = DataDrivenRuntime(cores, machine=app.machine, mode=mode, faults=faults)
    rep = rt.run(progs, _patch_proc(app, cores, mode))
    phi, _ = s.accumulate(faces)
    return rep, phi, [p.clusters for p in progs]


@pytest.mark.parametrize("mode, cores", MODES)
def test_replaying_sweep_report_equals_recording_one(mode, cores):
    app = _koba()
    first = app.sweep_report(cores, mode=mode)
    assert len(_recorded(app.solver.topology)) == 8 * 8  # patches x octants
    second = app.sweep_report(cores, mode=mode)
    assert report_fingerprint(first) == report_fingerprint(second)
    assert len(_recorded(app.solver.topology)) == 8 * 8


@pytest.mark.parametrize("resilient", [False, True])
@pytest.mark.parametrize("mode, cores", [("hybrid", 48), ("mpi_only", 8)])
def test_replayed_flux_and_clusters_equal_recorded(mode, cores, resilient):
    app = _koba()
    ref = app.solver.sweep_once(mode="fast-level")[0]
    plan = None
    if resilient:
        plan = FaultPlan(crashes=(CrashFault(proc=1, time=60e-6),),
                         p_drop=0.05, p_duplicate=0.05, seed=7)
    rep1, phi1, clusters1 = _sweep(app, cores, mode, resilient, plan)
    rep2, phi2, clusters2 = _sweep(app, cores, mode, resilient, plan)
    assert np.array_equal(phi1, ref) and np.array_equal(phi2, ref)
    assert clusters1 == clusters2
    assert report_fingerprint(rep1, phi1) == report_fingerprint(rep2, phi2)
    if resilient:
        assert rep1.crashes == 1 and rep1.reexecutions > 0
        assert {r for *_, r in _recorded(app.solver.topology)} == {True}


@pytest.mark.parametrize("frac", [0.3, 0.6, 0.9])
def test_kill_and_resume_cut_after_replayed_runs(frac, tmp_path):
    """The restarted process rebuilds its programs over the warm
    topology: the runs before the cut and after it are all replays."""
    cores = 24
    app = _koba()
    cold, phi_cold, _ = _sweep(app, cores)  # records

    def factory():
        progs, faces = app.solver.build_programs()
        factory.faces = faces
        return (DataDrivenRuntime(cores, machine=app.machine), progs,
                _patch_proc(app, cores), FluxArrayState(faces))

    rep, _mgr, killed = kill_and_resume(
        factory, kill_at=int(frac * cold.events),
        every=max(20, cold.events // 8), workdir=tmp_path,
    )
    assert killed
    phi, _ = app.solver.accumulate(factory.faces)
    assert report_fingerprint(rep, phi) == report_fingerprint(cold, phi_cold)


# -- (c) replay really skips the loop; the rule really excludes ---------------------


def test_second_sweep_touches_neither_heap_nor_adjacency(monkeypatch):
    app = _koba()
    first = app.sweep_report(24)
    inside = []
    real_compute = SweepPatchProgram.compute

    def compute(self):
        inside.append(self.id)
        try:
            real_compute(self)
        finally:
            inside.pop()

    def outside_compute_only(fn):
        def guarded(*args):
            assert not inside, f"{fn.__name__} inside compute of {inside}"
            return fn(*args)
        return guarded

    def no_lists(self):
        raise AssertionError(f"adjacency_flat of patch {self.patch}")

    monkeypatch.setattr(SweepPatchProgram, "compute", compute)
    monkeypatch.setattr(sp, "heappop", outside_compute_only(sp.heappop))
    monkeypatch.setattr(sp, "heappush", outside_compute_only(sp.heappush))
    monkeypatch.setattr(PatchAngleGraph, "adjacency_flat", no_lists)
    second = app.sweep_report(24)
    assert report_fingerprint(first) == report_fingerprint(second)
    assert second.vertices_solved == 8 ** 3 * QUAD.num_angles


def test_first_sweep_builds_one_adjacency_per_task(monkeypatch):
    """Already inside sweep 1 the other angles of an octant replay; the
    recording run builds its graph's adjacency lists and keeps none."""
    built = []
    real = PatchAngleGraph.adjacency_flat

    def adjacency_flat(self, keep=True):
        built.append((id(self), keep))
        return real(self, keep)

    monkeypatch.setattr(PatchAngleGraph, "adjacency_flat", adjacency_flat)
    app = _koba()
    app.sweep_report(24)
    topo = app.solver.topology
    recorded = {id(topo.graph(p, a)) for p, a, _ in _recorded(topo)}
    assert len(recorded) == len(_recorded(topo)) == len(topo.graphs) // 3
    assert sorted(built) == sorted((g, False) for g in recorded)
    assert all(g._flat_cache is None for g in topo.graphs.values())


@pytest.mark.parametrize("build", [
    lambda: (JSNTU.ball(5, total_cores=12, patch_size=120, grain=64,
                        groups=1), None),
    lambda: (JSNTU.reactor(10, total_cores=12, patch_size=120, grain=64,
                           groups=1), None),
    lambda: (_koba(), 63),  # one short of the 64-cell patches
], ids=["ball", "reactor", "grain<n_local"])
def test_patches_larger_than_the_grain_record_nothing(build):
    app, grain = build()
    topo = app.solver.topology
    limit = grain if grain is not None else app.solver.grain
    assert min(g.n_local for g in topo.graphs.values()) > limit
    rep = app.sweep_report(12, grain=grain)
    assert rep.vertices_solved == topo.num_vertices
    assert all(g.tasks == {} for g in topo.graphs.values())


# -- (d) what is shared, and when it stops being valid ------------------------------


@pytest.fixture()
def topo():
    pset = PatchSet.from_structured(cube_structured(8), (4, 4, 4), nprocs=2)
    topo = SweepTopology(pset, QUAD)
    apply_priorities(topo, "slbd+slbd")
    return topo


def _whole_patch_run(g: PatchAngleGraph, angle, resilient=False):
    """Feed every upwind item in one stream, run once: (streams, order)."""
    prog = SweepPatchProgram(g, np.arange(g.n_local), grain=1000,
                             record_clusters=True, resilient=resilient,
                             angle=angle)
    prog.init()
    remote_in = g.init_counts - np.bincount(g.dl_target, minlength=g.n_local)
    items = np.repeat(np.arange(g.n_local), remote_in).tolist()
    if resilient:
        items = list(zip(items, range(len(items))))
    if items:
        prog.input(Stream(src=ProgramId(99, angle), dst=prog.id,
                          payload=tuple(items), items=len(items)))
    prog.compute()
    assert prog.remaining_workload() == 0 and prog.vote_to_halt()
    return prog.drain_outputs(), prog.clusters[0]


def _octant_twins(topo):
    """Two angles of one angle set: one octant of the S4 cube."""
    assert sorted(map(len, topo.angle_sets)) == [3] * 8
    a, b, _ = topo.angle_sets[0]
    return a, b


def test_same_octant_graphs_share_one_readonly_task(topo):
    a, b = _octant_twins(topo)
    g = topo.graph(0, a)
    assert topo.graph(0, b) is g  # one graph, so one task slot
    assert all(topo.graph(0, c) is not g
               for angles in topo.angle_sets[1:] for c in angles)
    sa, order_a = _whole_patch_run(g, a)
    assert list(g.tasks) == [False]
    sb, order_b = _whole_patch_run(g, b)
    sb2, _ = _whole_patch_run(g, b)
    assert list(g.tasks) == [False] and order_a == order_b
    assert sa and len(sa) == len(sb)
    for x, y, z in zip(sa, sb, sb2):
        assert x.payload is y.payload is z.payload  # one table ...
        assert type(x.payload) is tuple  # ... immutable by type
        with pytest.raises(TypeError):
            x.payload[0] = 0
        assert y is not z  # ... in fresh streams (the runtime stamps them)
        assert (x.dst.patch, x.dst.task) == (y.dst.patch, a)
        assert (y.dst.task, y.src.task) == (b, b)
        assert y.dst is z.dst is topo.dst_ids[b][y.dst.patch]  # per angle
    _whole_patch_run(g, a, resilient=True)  # other payload shape, other task
    assert sorted(g.tasks) == [False, True]


def test_graphs_differing_only_in_dr_patch_do_not_share(topo):
    a, _ = _octant_twins(topo)
    g = topo.graph(0, a)
    other = dataclasses.replace(g, dr_patch=g.dr_patch + 1)
    assert other.tasks is not g.tasks  # a copy starts unrecorded
    sg, order_g = _whole_patch_run(g, a)
    assert other.tasks == {}
    so, order_o = _whole_patch_run(other, a)
    assert list(g.tasks) == list(other.tasks) == [False]
    assert order_g == order_o
    assert [s.dst.patch + 1 for s in sg] == [s.dst.patch for s in so]
    assert all(x.payload is not y.payload for x, y in zip(sg, so))


def test_reapplied_priorities_clear_the_recorded_tasks(topo):
    """Stale-task guard: another vertex strategy on the same topology
    must change what replays, to what a fresh topology would pop."""
    g = topo.graph(0, 0)
    _, slbd = _whole_patch_run(g, 0)
    assert g.tasks
    apply_priorities(topo, "slbd+bfs")
    assert all(g.tasks == {} for g in topo.graphs.values())
    _, bfs = _whole_patch_run(g, 0)
    _, replayed = _whole_patch_run(g, 0)
    fresh = SweepTopology(topo.pset, QUAD)
    apply_priorities(fresh, "slbd+bfs")
    _, want = _whole_patch_run(fresh.graph(0, 0), 0)
    assert bfs == replayed == want != slbd
    assert sorted(bfs) == sorted(slbd) == list(range(g.n_local))


# -- (e) memory guard ------------------------------------------------------------------


def _tables(g: PatchAngleGraph) -> tuple:
    return (g.init_counts, g.dl_indptr, g.dl_target,
            g.dr_indptr, g.dr_patch, g.dr_local)


def _table_bytes(g: PatchAngleGraph) -> int:
    """The tables' size at 8 bytes per entry: the width the bound below
    was set at, before the tables became int32."""
    return 8 * sum(t.size for t in _tables(g))


def test_tasks_are_small_beside_the_csr_tables():
    app = _koba()
    _sweep(app, 24)
    _sweep(app, 24, resilient=True)  # both payload shapes recorded
    topo = app.solver.topology
    tasks = _recorded(topo)
    assert len(tasks) == 2 * 8 * 8
    task_bytes = sum(  # payloads at their int64 wire image
        order.nbytes + sum(8 * np.size(payload) for _, payload, _ in outs)
        for order, outs, _ in tasks.values()
    )
    assert all(items == len(payload) for _, outs, _ in tasks.values()
               for _, payload, items in outs)  # a fine edge is one item
    per_key = sum(map(_table_bytes, topo.graphs.values()))
    held = sum(_table_bytes(topo.graph(p, a))
               for p, a in {key[:2] for key in tasks})
    assert all(order.dtype == np.int32 for order, *_ in tasks.values())
    # The bound in bytes as first set, at 8 bytes per table entry: a
    # quarter of the tables at one graph per key.  The sets hold each
    # table once (a third of that on S4), so beside what is really held
    # the two payload shapes together weigh more - still well under
    # half.  The tables themselves are int32, so they weigh half that.
    assert held * 3 == per_key
    assert 2 * sum(t.nbytes for g in topo.graphs.values()
                   for t in _tables(g)) == per_key
    assert task_bytes <= 0.25 * per_key
    assert task_bytes <= 0.4 * held
