"""fast-level regression: the compiled sweep plan is bitwise-identical
to the scalar ``fast`` sweep on every mesh family and boundary kind.

``AngleKernel.solve_level`` batches one dependency level of *every*
angle through one ``(c,1,k) @ (c,k,ng)`` matmul per in-degree group,
which runs the same BLAS dot per vertex as ``solve_cells``'s
``in_coeff @ psi_faces.take(isl)``.  These tests pin that equivalence -
``np.array_equal``, no tolerance - because ``fast-level`` is the
default ``sweep_once`` mode and any float-order drift would silently
change every solver result.
"""

from heapq import heappush

import numpy as np
import pytest

from repro import CrashFault, DataDrivenRuntime, FaultPlan
from repro._util import ReproError
from repro.apps import JSNTS, JSNTU
from repro.core import SerialEngine
from repro.framework import PatchSet
from repro.mesh import cube_structured, warped_quad_mesh
from repro.runtime import Machine
from repro.sweep import (
    Material, MaterialMap, Quadrature, SnSolver, level_symmetric,
    product_quadrature,
)
from repro.sweep.dag import angle_sets, directed_edges, topological_levels
from repro.sweep.coarsened import CoarsenedSweepProgram
from repro.sweep.kernels import _TOL, AngleKernel, SweepPlan
from repro.sweep.sweep_program import SweepPatchProgram


def _koba(**kw):
    """Structured DD; S4 puts 3 non-adjacent angles in every octant."""
    app = JSNTS.kobayashi(
        12, total_cores=24, quadrature=level_symmetric(4), patch_shape=(6, 6, 6)
    )
    s = app.solver
    return SnSolver(app.pset, s.quadrature, s.materials, s.source, **kw)


def _ball(groups=4):
    return JSNTU.ball(10, total_cores=24, patch_size=120, groups=groups).solver


def _reactor():
    return JSNTU.reactor(8, total_cores=12, patch_size=60, groups=4).solver


def _reactor_axial():
    """2-D mesh swept along +-z too: no face is active there, so every
    cell has in-degree 0 and the angle is one level without groups."""
    base = _reactor()
    d = np.array([[0, 0, 1.0], [0, 0, -1.0], [0.6, 0.8, 0], [-0.8, 0.6, 0]])
    quad = Quadrature(d, np.full(4, np.pi))
    return SnSolver(base.pset, quad, base.materials, base.source)


def _cube(groups=1, **kw):
    mesh = cube_structured(6, length=3.0)
    mm = MaterialMap.uniform(
        Material.isotropic(1.0, 0.5, groups=groups), mesh.num_cells
    )
    return SnSolver(
        PatchSet.single_patch(mesh), product_quadrature(2, 12), mm,
        np.ones((mesh.num_cells, groups)), **kw,
    )


def _incident(centroids, direction):
    return 1.0 + np.abs(centroids @ direction)


def _koba12():
    """The ledger's Kobayashi solve: 8 octants of 3 angles, 34 levels each."""
    return JSNTS.kobayashi(
        12, total_cores=24, quadrature=product_quadrature(2, 12),
        patch_shape=(3, 3, 3),
    ).solver


def _warped():
    mesh = warped_quad_mesh((10, 10))
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.3), mesh.num_cells)
    return SnSolver(
        PatchSet.from_unstructured(mesh, 25, nprocs=2), level_symmetric(4), mm,
        np.ones((mesh.num_cells, 1)), scheme="step",
    )


def _sets(s):
    """The solver's angle sets, as ``sweep_plan`` derives them."""
    return angle_sets(
        s.quadrature.directions, s.interfaces.normal, s.boundary.normal, tol=_TOL
    )


def _degrees(plan, indptr):
    """In- or out-degree of every plan vertex, from its angle's kernel."""
    by_id = np.concatenate([np.diff(getattr(k, indptr)) for k in plan.kernels])
    return by_id[plan.vertex]


def _angle_levels(s):
    """Per angle, its own Kahn peel (not shared through a set)."""
    return [
        topological_levels(s.mesh.num_cells, *directed_edges(s.interfaces, d))
        for d in s.quadrature.directions
    ]


#: name -> (fresh solver, sizes of its angle sets).  On a 2-D mesh the
#: +z / -z twins of an ordinate see the same geometry and pair up.
SOLVERS = {
    "koba-dd-fixup": (_koba, {3}),
    "koba-dd-nofixup": (lambda: _koba(fixup=False), {3}),
    "koba-step": (lambda: _koba(scheme="step"), {3}),
    "ball-step-4g": (_ball, {1}),
    "ball-step-1g": (lambda: _ball(groups=1), {1}),
    "reactor-2d": (_reactor, {2}),
    "reactor-2d-indegree0": (_reactor_axial, {1, 2}),
    "cube-4g": (lambda: _cube(groups=4), {3}),
    "cube-reflecting": (lambda: _cube(reflecting=True), {3}),
    "cube-incident-callable": (lambda: _cube(boundary_flux=_incident), {3}),
}


def _parts_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("name", SOLVERS)
def test_fast_level_is_bitwise_fast(name):
    """Two sweeps each (the second sees the lagged reflecting store),
    with a random scatter source, on separate solvers."""
    make, set_sizes = SOLVERS[name]
    fast, level = make(), make()
    rng = np.random.default_rng(7)
    scatter = rng.random((fast.mesh.num_cells, fast.num_groups))
    for sc in (None, scatter):
        _parts_equal(
            fast.sweep_once(sc, mode="fast"),
            level.sweep_once(sc, mode="fast-level"),
        )
    assert {len(angles) for angles in _sets(level)} == set_sizes
    depths = [len(lv) for lv in _angle_levels(level)]
    assert len(level.sweep_plan().levels) == max(depths)


_MACHINE = Machine(cores_per_proc=4)


def _des_solver(structured, grain, mode="hybrid", groups=1, **kw):
    """Structured: 8 patches of 27 cells, so from grain 27 on every run
    is a whole-patch run (a patch cannot start before its corner cell's
    upwind faces are in).  Unstructured: 9 patches of 16 warped quads,
    whose runs from grain 16 on are whole or partial, as the upwind
    patches' streams arrive; below it all partial.  ``kw`` (``scheme``,
    ``fixup``) goes to the solver."""
    nprocs = _MACHINE.layout(8, mode).nprocs
    if structured:
        base = _cube(groups=groups)
        pset = PatchSet.from_structured(base.mesh, (3, 3, 3), nprocs=nprocs)
        return SnSolver(pset, base.quadrature, base.materials, base.source,
                        grain=grain, **kw)
    mesh = warped_quad_mesh((12, 12))
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.3, groups=groups), mesh.num_cells)
    return SnSolver(
        PatchSet.from_unstructured(mesh, 16, nprocs=nprocs), level_symmetric(4),
        mm, np.ones((mesh.num_cells, groups)), scheme="step", grain=grain, **kw,
    )


def _crash_plan(s, mode):
    """Process 1 crashes a third into the clean makespan."""
    clean, _ = s.build_programs(compute=False)
    makespan = DataDrivenRuntime(8, machine=_MACHINE, mode=mode).run(
        clean, s.pset.patch_proc).makespan
    return FaultPlan(crashes=(CrashFault(proc=1, time=makespan / 3),))


def _des_run(s, mode="hybrid", crash=False):
    """One compute=True DES sweep; with ``crash``, process 1 crashes a
    third into the clean makespan and resilient programs recover."""
    faults = _crash_plan(s, mode) if crash else None
    programs, record = s.build_programs(resilient=crash)
    rep = DataDrivenRuntime(8, machine=_MACHINE, mode=mode, faults=faults).run(
        programs, s.pset.patch_proc)
    assert rep.crashes == int(crash)
    return s.accumulate(record)


def _coarsened_run(s):
    programs, record = s.build_coarsened_programs(s.record_coarsened())
    DataDrivenRuntime(8, machine=_MACHINE).run(programs, s.pset.patch_proc)
    return s.accumulate(record)


RUNS = {
    "des": _des_run,
    "crash": lambda s, mode: _des_run(s, mode, crash=True),
    "engine": lambda s, mode: s.sweep_once(mode="engine")[:2],
    "coarsened": lambda s, mode: _coarsened_run(s),
}


def _case(structured, grain, run, mode="hybrid", sigma_1d=False, **kw):
    return structured, grain, mode, run, sigma_1d, kw


#: id -> (structured, grain, mode, run, 1-D ``sigma_t_v``, solver
#: options).  ``cube-partial`` is where this test began.  Grain 27 makes
#: every structured run whole-patch, grain 8 every one partial; the
#: warped mesh mixes both from grain 16 on.
DES_CASES = {
    "cube-partial": _case(True, 8, "des"),
    "cube-whole": _case(True, 27, "des"),
    "warped-partial": _case(False, 4, "des"),
    "warped-mixed": _case(False, 64, "des"),
    "cube-whole-mpi_only": _case(True, 27, "des", mode="mpi_only"),
    "warped-mixed-mpi_only": _case(False, 64, "des", mode="mpi_only"),
    "cube-whole-crash": _case(True, 27, "crash"),
    "warped-mixed-crash": _case(False, 64, "crash"),
    "cube-whole-engine": _case(True, 27, "engine"),
    "warped-partial-engine": _case(False, 4, "engine"),
    "cube-whole-sigma1d": _case(True, 27, "des", sigma_1d=True),
    "warped-mixed-sigma1d": _case(False, 64, "des", sigma_1d=True),
    "cube-coarsened": _case(True, 27, "coarsened"),
    "warped-coarsened": _case(False, 64, "coarsened"),
    "cube-partial-4g": _case(True, 8, "des", groups=4),
    "cube-whole-4g": _case(True, 27, "des", groups=4),
    "warped-mixed-4g": _case(False, 64, "des", groups=4),
    "cube-partial-nofixup": _case(True, 8, "des", fixup=False),
    "cube-whole-nofixup": _case(True, 27, "des", fixup=False),
    "cube-partial-step": _case(True, 8, "des", scheme="step"),
    "cube-whole-step": _case(True, 27, "des", scheme="step"),
}


def _count_kernel_calls(monkeypatch):
    """``{"cells": solve_cells calls, "level": solve_level calls}``, live."""
    calls = {"cells": 0, "level": 0}
    for key, name in (("cells", "solve_cells"), ("level", "solve_level")):
        real = getattr(AngleKernel, name)

        def counted(*args, _key=key, _real=real):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(AngleKernel, name, counted)
    return calls


@pytest.mark.parametrize("case", DES_CASES)
def test_des_accumulate_is_bitwise_fast_level(monkeypatch, case):
    """Every program-driven sweep - whole-patch and partial runs, on
    both mesh families, both runtime modes, under a crash, serially and
    coarsened - passes the order check and gives the flux and leakage
    of ``sweep_once()`` bit for bit, through one batched sweep: the
    runs themselves call no kernel."""
    structured, grain, mode, run, sigma_1d, kw = DES_CASES[case]
    s = _des_solver(structured, grain, mode, **kw)
    if sigma_1d:
        s.sigma_t_v = s.sigma_t_v[:, 0].copy()
    reference, leakage, _ = s.sweep_once()
    calls = _count_kernel_calls(monkeypatch)
    phi, leak = RUNS[run](s, mode)
    assert np.array_equal(phi, reference)
    assert np.array_equal(leak, leakage)
    assert calls == {"cells": 0, "level": len(s.sweep_plan().levels)}


def test_program_runs_stamp_the_order_and_call_no_kernel(monkeypatch):
    """A run of a solver-built program numbers its cells in pop order,
    from the record's clock on, and calls no kernel: a whole-patch run
    stamps its patch, a partial run ``grain`` cells."""
    calls = _count_kernel_calls(monkeypatch)
    for grain, whole in ((27, True), (8, False)):
        s = _des_solver(True, grain)
        programs, record = s.build_programs()
        # The programs of the patch without upwind patches (one corner
        # patch per angle): their first run has nothing to wait for.
        checked = 0
        for prog in programs:
            g = prog.graph
            if int(g.init_counts.sum()) != g.num_local_edges:
                continue
            prog.init()
            clock = record.clock
            prog.compute()
            checked += 1
            solved = g.n_local if whole else grain
            assert prog.remaining_workload() == g.n_local - solved
            assert record.clock == clock + solved
            row = record.first[prog.task]
            stamped = np.flatnonzero(row >= clock)
            assert len(stamped) == solved
            assert set(stamped.tolist()) <= set(prog.cells_global.tolist())
        assert checked == s.quadrature.num_angles
        assert calls == {"cells": 0, "level": 0}


def test_engine_sweep_kernel_calls_are_one_batched_sweep(monkeypatch):
    """Over a whole sweep - the recording one and a replaying one - and
    over coarsened programs, the kernel calls are the one ``fast-level``
    sweep of the accumulation: one ``solve_level`` per plan level, no
    ``solve_cells``."""
    s = _des_solver(True, 27)
    levels = len(s.sweep_plan().levels)
    calls = _count_kernel_calls(monkeypatch)
    for _ in range(2):
        calls.update(cells=0, level=0)
        s.sweep_once(mode="engine")
        assert calls == {"cells": 0, "level": levels}
    programs, record = s.build_coarsened_programs(s.record_coarsened())
    calls.update(cells=0, level=0)
    engine = SerialEngine()
    for prog in programs:
        engine.add_program(prog)
    engine.run()
    assert calls == {"cells": 0, "level": 0}
    s.accumulate(record)
    assert calls == {"cells": 0, "level": levels}


def test_launch_tables_are_built_once():
    """The first ``solve_level`` of the sweep plan builds its launch
    table; no later sweep - ``fast-level`` or a program run's
    accumulation - builds it again."""
    s = _des_solver(True, 27)
    s.sweep_once(mode="engine")
    plan = s.sweep_plan()
    table = plan._launch
    assert table is not None
    for mode in ("engine", "fast-level", "engine"):
        s.sweep_once(mode=mode)
    assert s.sweep_plan() is plan
    assert plan._launch is table and plan.launch_table() is table


# -- the order check ---------------------------------------------------------------


def _stamped(s, build=None, resilient=False, faults=None):
    """The order record of one DES run of ``build(s)`` (default: the
    solver's programs)."""
    if build is None:
        programs, record = s.build_programs(resilient=resilient)
    else:
        programs, record = build(s)
    DataDrivenRuntime(8, machine=_MACHINE, faults=faults).run(programs, s.pset.patch_proc)
    return record


def _an_adjacent_edge(s, first, angle):
    """A DAG edge of ``angle`` whose cells were solved one after the
    other: swapping their stamps inverts that edge and no other."""
    u, v = directed_edges(s.interfaces, s.quadrature.directions[angle])
    e = np.flatnonzero(first[angle][v] - first[angle][u] == 1)[0]
    return int(u[e]), int(v[e])


def _coarsened_build(s):
    return s.build_coarsened_programs(s.record_coarsened())


@pytest.mark.parametrize("structured", [True, False], ids=["cube", "warped"])
@pytest.mark.parametrize("build", [None, _coarsened_build], ids=["programs", "coarsened"])
def test_order_check_names_a_hand_inverted_edge(structured, build):
    """Swapping the stamps of one DAG edge's cells is refused, naming
    the angle, the edge and both stamps; the true record passes."""
    s = _des_solver(structured, 16)
    record = _stamped(s, build)
    s.check_order(record.first)
    angle = s.quadrature.num_angles - 1
    u, v = _an_adjacent_edge(s, record.first, angle)
    row = record.first[angle]
    row[u], row[v] = row[v], row[u]
    with pytest.raises(ReproError) as err:
        s.accumulate(record)
    msg = str(err.value)
    assert f"angle {angle}" in msg and f"{u} -> {v}" in msg
    assert f"first[{u}] = {row[u]}" in msg and f"first[{v}] = {row[v]}" in msg


def test_order_check_refuses_an_unstamped_cell():
    s = _des_solver(False, 16)
    record = _stamped(s)
    record.first[2, 17] = -1
    with pytest.raises(ReproError, match="angle 2: cell 17 was never solved"):
        s.accumulate(record)


@pytest.mark.parametrize("structured", [True, False], ids=["cube", "warped"])
def test_order_record_of_a_crash_run_keeps_first_solves(structured):
    """Resilient programs under a crash re-execute lost runs; the record
    keeps each cell's first solve (the clock counts cells, not solves)
    and passes the check."""
    s = _des_solver(structured, 16)
    programs, record = s.build_programs(resilient=True)
    rep = DataDrivenRuntime(8, machine=_MACHINE, faults=_crash_plan(s, "hybrid")).run(
        programs, s.pset.patch_proc)
    assert rep.crashes == 1 and rep.reexecutions > 0
    assert rep.vertices_solved > record.first.size == record.clock
    s.check_order(record.first)


@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "crash"])
def test_order_check_catches_a_vertex_released_one_edge_early(monkeypatch, resilient):
    """The mutation the value oracle cannot always see (a stale read of
    a face that still holds its initial value): each program's first
    waiting vertex is released one in-edge early.  Here the source is
    zero, so every flux is zero and bitwise "exact" - and the order
    check still refuses the run."""
    real = SweepPatchProgram.init

    def early(self):
        real(self)
        waiting = [v for v, c in enumerate(self._counts) if c > 0]
        if waiting:
            self._counts[waiting[0]] -= 1
            if not self._counts[waiting[0]]:
                heappush(self._heap, self._keys[waiting[0]])

    s = _des_solver(True, 16)
    s.source = np.zeros_like(s.source)
    faults = _crash_plan(s, "hybrid") if resilient else None
    monkeypatch.setattr(SweepPatchProgram, "init", early)
    record = _stamped(s, resilient=resilient, faults=faults)
    assert not np.any(s._sweep_level(record.src_v)[0])  # the values cannot tell
    with pytest.raises(ReproError, match="solved out of order"):
        s.accumulate(record)


def _user_solve(s):
    """A user's Listing-1 ``(cells, angle)`` callback that solves in its
    runs, and what it leaves: ``(solve, phi_of)``."""
    ng = s.num_groups
    src_v = s._angle_source_v(np.zeros((s.mesh.num_cells, ng)))
    arrays = {}
    for a in range(s.quadrature.num_angles):
        k = s.kernel(a)
        pf = k.new_face_array(ng)
        s._apply_bc(k, pf, a)
        arrays[a] = (k, k.removal(s.sigma_t_v), pf, np.zeros((s.mesh.num_cells, ng)))

    def solve(cells, angle):
        k, den, pf, pc = arrays[angle]
        k.solve_cells(cells, src_v, den, pf, pc)

    def phi_of():
        phi = np.zeros((s.mesh.num_cells, ng))
        for a, (_, _, _, pc) in arrays.items():
            phi += s.quadrature.weights[a] * pc
        return phi

    return solve, phi_of


@pytest.mark.parametrize("structured", [True, False], ids=["cube", "warped"])
@pytest.mark.parametrize("coarsened", [False, True], ids=["programs", "coarsened"])
def test_user_solve_fn_still_solves_in_its_runs(monkeypatch, structured, coarsened):
    """The Listing-1 contract is unchanged for a user callback: it gets
    every run's cells in pop order and solves them there, and the flux
    it builds equals ``sweep_once()``'s bit for bit."""
    s = _des_solver(structured, 16)
    reference = s.sweep_once()[0]
    solve, phi_of = _user_solve(s)
    cells = {p: s.pset.patches[p].cells for p in range(s.pset.num_patches)}
    if coarsened:
        programs = [CoarsenedSweepProgram(cg, cells[p], solve_fn=solve)
                    for (p, _), cg in s.record_coarsened().items()]
    else:
        programs = [SweepPatchProgram(g, cells[p], grain=s.grain, solve_fn=solve, angle=a)
                    for (p, a), g in s.topology.graphs.items()]
    calls = _count_kernel_calls(monkeypatch)
    DataDrivenRuntime(8, machine=_MACHINE).run(programs, s.pset.patch_proc)
    assert calls["cells"] >= len(programs) and calls["level"] == 0
    assert np.array_equal(phi_of(), reference)


@pytest.mark.parametrize("make", [_koba, lambda: _koba(scheme="step"), _ball],
                         ids=["cube-dd", "cube-step", "ball-step-4g"])
def test_solve_cells_takes_an_array_or_a_list_of_ids(make):
    """Identical bits whether the ids come as an ndarray or as ints."""
    s = make()
    rng = np.random.default_rng(5)
    ng = s.num_groups
    src_v = s._angle_source_v(rng.random((s.mesh.num_cells, ng)))
    for a in (0, s.quadrature.num_angles - 1):
        k = s.kernel(a)
        den = k.removal(s.sigma_t_v)
        order = s.topo_order(a)
        out = []
        for cells in (np.asarray(order), np.asarray(order).tolist()):
            psi_faces = k.new_face_array(ng)
            s._apply_bc(k, psi_faces, a)
            psi_cell = np.zeros((s.mesh.num_cells, ng))
            k.solve_cells(cells, src_v, den, psi_faces, psi_cell)
            out.append((psi_faces, psi_cell))
        _parts_equal(out[0], out[1])


def test_solve_cells_of_no_cells_is_a_noop():
    s = _cube(groups=2)
    k = s.kernel(0)
    src_v = s._angle_source_v(np.zeros((s.mesh.num_cells, 2)))
    psi_faces = np.random.default_rng(1).random((k.num_slots, 2))
    psi_cell = np.full((s.mesh.num_cells, 2), 7.0)
    faces, cells = psi_faces.copy(), psi_cell.copy()
    for empty in ([], np.zeros(0, dtype=np.int64)):
        k.solve_cells(empty, src_v, k.removal(s.sigma_t_v), psi_faces, psi_cell)
    _parts_equal((psi_faces, psi_cell), (faces, cells))


def test_sigma_t_v_may_be_one_value_per_cell():
    """``solve_cells`` documents a 1-D ``sigma_t_v``; the plan takes it too."""
    flat, full = _cube(groups=4), _cube(groups=4)
    flat.sigma_t_v = flat.sigma_t_v[:, 0].copy()
    want = full.sweep_once(mode="fast-level")
    _parts_equal(flat.sweep_once(mode="fast-level"), want)
    _parts_equal(flat.sweep_once(mode="fast"), want)


def test_source_iteration_default_is_fast_level():
    s = _ball()
    res_default = s.source_iteration(tol=1e-5, max_iterations=8)
    res_fast = s.source_iteration(tol=1e-5, max_iterations=8, mode="fast")
    assert np.array_equal(res_default.phi, res_fast.phi)
    assert res_default.iterations == res_fast.iterations


def test_batched_matmul_matches_blas_dot():
    # The micro-fact the kernel relies on: a stacked (c,1,k)@(c,k,ng)
    # matmul reproduces the per-row 1-D @ 2-D dot bit for bit.
    rng = np.random.default_rng(3)
    for k in range(1, 8):
        coeff = rng.standard_normal((192, k))
        flux = rng.standard_normal((192, k, 4))
        batched = np.matmul(coeff[:, None, :], flux)[:, 0]
        for i in range(192):
            assert np.array_equal(batched[i], coeff[i] @ flux[i])


@pytest.mark.parametrize(
    "make", [_koba, lambda: _koba(scheme="step"), _ball, _reactor, _warped],
    ids=["cube-dd", "cube-step", "ball-step", "reactor-step", "warped-step"],
)
def test_removal_is_bitwise_the_per_cell_sum(make):
    """The equality the ``solve_cells`` hoist rests on, for every cell
    of every mesh family and both schemes."""
    s = make()
    two = 2.0 if s.scheme == "dd" else 1.0
    for a in range(s.quadrature.num_angles):
        k = s.kernel(a)
        den = k.removal(s.sigma_t_v)
        assert den.shape == s.sigma_t_v.shape
        for c in range(s.mesh.num_cells):
            olo, ohi = k.out_indptr[c], k.out_indptr[c + 1]
            want = s.sigma_t_v[c] + two * k.out_coeff[olo:ohi].sum()
            assert np.array_equal(den[c], want)
        assert np.array_equal(k.removal(s.sigma_t_v[:, 0].copy()), den[:, :1])


@pytest.mark.parametrize("angle", [-1, 24])
def test_kernel_of_an_unknown_angle_is_a_structured_error(angle):
    """Below the range (once silently a duplicate of the last angle's
    kernel, cached under -1) and above it (once a bare IndexError)."""
    s = _cube()
    with pytest.raises(ReproError, match=r"0\.\.23") as err:
        s.kernel(angle)
    assert repr(angle) in str(err.value)
    assert angle not in s._kernels
    assert s.kernel(23) is s.kernel(23)


@pytest.mark.parametrize("make, calls", [(_koba12, 34), (_ball, None)],
                         ids=["koba12", "ball"])
def test_solve_level_calls_per_sweep_are_the_deepest_angles_levels(
    monkeypatch, make, calls
):
    """Count guard: a sweep costs ``max over angles of levels`` kernel
    calls, not their sum - on the ball although its angles differ in
    depth (levels past an angle's depth hold none of its vertices)."""
    s = make()
    depths = [len(lv) for lv in _angle_levels(s)]
    plan = s.sweep_plan()
    assert len(plan.levels) == max(depths)
    if calls is None:
        assert len(set(depths)) > 1
    else:
        assert set(depths) == {calls}
    na, ncells = s.quadrature.num_angles, s.mesh.num_cells
    for l, (c0, c1, *_rest) in enumerate(plan.levels):
        present = np.unique(plan.vertex[c0:c1] // ncells).tolist()
        assert present == [a for a in range(na) if depths[a] > l]
    seen = []
    real = AngleKernel.solve_level

    def counted(self, plan, level, *args):
        seen.append(level)
        return real(self, plan, level, *args)

    monkeypatch.setattr(AngleKernel, "solve_level", counted)
    for _ in range(2):
        seen.clear()
        s.sweep_once(mode="fast-level")
        assert seen == list(range(len(plan.levels)))


class TestPlanStructure:
    def test_tables_are_int32_and_shared_by_the_octant(self):
        """One plan; every (angle, cell) vertex once; and what an octant
        still shares - its angles' Kahn levels, hence the cell sequence
        of each of its angles inside the plan."""
        s = _koba()
        p = s.sweep_plan()
        assert s.sweep_plan() is p
        na, ncells = s.quadrature.num_angles, s.mesh.num_cells
        for table in (p.vertex, p.cell, p.slots, p.osl, p.oseg, p.pair):
            assert table.dtype == np.int32 and table.ndim == 1
        assert p.coeff.shape == p.slots.shape and p.coeff.dtype == np.float64
        assert p.den2.shape == p.vertex.shape == (na * ncells,)
        assert np.array_equal(np.sort(p.vertex), np.arange(na * ncells))
        assert np.array_equal(p.cell, p.vertex % ncells)
        angle = p.vertex // ncells
        # Face slots of angle a live in slab a of the flat face array.
        nslots = s.kernel(0).num_slots
        assert np.array_equal(
            p.slots // nslots, np.repeat(angle, _degrees(p, "in_indptr"))
        )
        # S4 angles a, a + 8, a + 16 share an octant.
        for a in range(8):
            assert len({s.quadrature.octant_of(b) for b in (a, a + 8, a + 16)}) == 1
            mine = p.cell[angle == a]
            assert np.array_equal(mine, p.cell[angle == a + 8])
            assert np.array_equal(mine, p.cell[angle == a + 16])

    def test_unstructured_angles_are_singletons_without_pairs(self):
        s = _ball()
        assert _sets(s) == [[a] for a in range(s.quadrature.num_angles)]
        assert s.sweep_plan().pair is None

    def test_levels_tile_the_tables(self):
        for s in (_koba(), _ball(), _reactor_axial()):
            p = s.sweep_plan()
            ncells = s.mesh.num_cells
            indeg = _degrees(p, "in_indptr")
            outdeg = _degrees(p, "out_indptr")
            c_end = s_end = o_end = 0
            for c0, c1, groups, o0, o1 in p.levels:
                assert (c0, o0) == (c_end, o_end)
                s_lo = s_end
                for a, b, deg, s0, s1 in groups:
                    assert np.all(indeg[c0 + a : c0 + b] == deg) and deg > 0
                    assert (s0, s1 - s0) == (s_end, (b - a) * deg)
                    s_end = s1
                covered = sum(b - a for a, b, *_ in groups)
                assert covered == np.count_nonzero(indeg[c0:c1])
                assert o1 - o0 == outdeg[c0:c1].sum()
                assert np.all(p.oseg[o0:o1] < c1 - c0)
                # No vertex's upwind neighbour sits beside it: the slots
                # a level reads were all written by earlier levels.
                assert not np.intersect1d(p.slots[s_lo:s_end], p.osl[o0:o1]).size
                c_end, o_end = c1, o1
            assert (c_end, s_end, o_end) == (
                len(p.vertex), len(p.slots), len(p.osl)
            )
            assert len(p.cell) == ncells * s.quadrature.num_angles

    def test_second_sweep_rebuilds_nothing(self, monkeypatch):
        import repro.sweep.solver as solver_module

        s = _cube()
        s.sweep_once()
        plan = s.sweep_plan()
        tables = (plan.vertex, plan.slots, plan.coeff)

        def boom(*a, **kw):
            raise AssertionError("plan rebuilt")

        monkeypatch.setattr(solver_module, "topological_levels", boom)
        monkeypatch.setattr(solver_module, "SweepPlan", boom)
        s.sweep_once()
        s.source_iteration(max_iterations=2)
        assert s.sweep_plan() is plan
        assert all(
            now is then
            for now, then in zip((plan.vertex, plan.slots, plan.coeff), tables)
        )

    def test_plans_are_smaller_than_the_kernels_csr(self):
        def nbytes(obj, names):
            tables = [getattr(obj, n) for n in names.split()]
            return sum(t.nbytes for t in tables if t is not None)

        for s in (_koba(), _ball(), _koba12()):
            plan = nbytes(
                s.sweep_plan(), "vertex cell slots osl oseg pair coeff den2"
            )
            csr = sum(
                nbytes(s.kernel(a), "in_indptr in_slot in_coeff out_indptr "
                                    "out_slot out_coeff out_coeff_sum")
                for a in range(s.quadrature.num_angles)
            )
            assert plan <= csr

    def test_empty_level_is_a_noop(self):
        s = _cube()
        plan = s.sweep_plan()
        na = s.quadrature.num_angles
        empty = np.zeros(0, dtype=np.int64)
        padded_levels = []
        for lv in _angle_levels(s):
            padded_levels.append([empty, *lv[:2], empty, *lv[2:], empty])
        padded = SweepPlan(plan.kernels, padded_levels)
        assert len(padded.levels) == len(plan.levels) + 3
        assert [c1 - c0 for c0, c1, *_ in padded.levels].count(0) == 3
        src_v = s._angle_source_v(np.zeros((s.mesh.num_cells, 1)))
        out = []
        for p in (plan, padded):
            psi_faces = np.ones((na, p.kernels[0].num_slots, 1))
            psi_cell = np.zeros((na, s.mesh.num_cells, 1))
            p.sweep(src_v, s.sigma_t_v, psi_faces, psi_cell)
            out.append((psi_faces, psi_cell))
        _parts_equal(out[0], out[1])
