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
from repro.sweep.dag import (
    angle_sets, directed_edges, kahn_fronts, topological_levels,
)
from repro.sweep.kernels import _TOL, AngleKernel, SweepPlan


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


def _des_run(s, mode="hybrid", crash=False):
    """One compute=True DES sweep; with ``crash``, process 1 crashes a
    third into the clean makespan and resilient programs recover."""
    faults = None
    if crash:
        clean, _ = s.build_programs(compute=False)
        makespan = DataDrivenRuntime(8, machine=_MACHINE, mode=mode).run(
            clean, s.pset.patch_proc).makespan
        faults = FaultPlan(crashes=(CrashFault(proc=1, time=makespan / 3),))
    programs, faces = s.build_programs(resilient=crash)
    rep = DataDrivenRuntime(8, machine=_MACHINE, mode=mode, faults=faults).run(
        programs, s.pset.patch_proc)
    assert rep.crashes == int(crash)
    return s.accumulate(faces)


def _coarsened_run(s):
    programs, faces = s.build_coarsened_programs(s.record_coarsened())
    DataDrivenRuntime(8, machine=_MACHINE).run(programs, s.pset.patch_proc)
    return s.accumulate(faces)


RUNS = {
    "des": _des_run,
    "crash": lambda s, mode: _des_run(s, mode, crash=True),
    "engine": lambda s, mode: s.sweep_once(mode="engine")[:2],
    "coarsened": lambda s, mode: _coarsened_run(s),
}


def _case(structured, grain, run, paths, mode="hybrid", sigma_1d=False, **kw):
    return structured, grain, mode, run, paths, sigma_1d, kw


#: id -> (structured, grain, mode, run, the kernel paths that must run,
#: 1-D ``sigma_t_v``, solver options).  ``cube-partial`` is where this
#: test began.  The last cases reach the branches the launch tables and
#: ``solve_cells`` specialise on - several energy groups, DD without the
#: fixup, the step scheme on a structured mesh - through partial runs
#: and whole runs each.
DES_CASES = {
    "cube-partial": _case(True, 8, "des", {"cells"}),
    "cube-whole": _case(True, 27, "des", {"level"}),
    "warped-partial": _case(False, 4, "des", {"cells"}),
    "warped-mixed": _case(False, 64, "des", {"cells", "level"}),
    "cube-whole-mpi_only": _case(True, 27, "des", {"level"}, mode="mpi_only"),
    "warped-mixed-mpi_only": _case(False, 64, "des", {"cells", "level"}, mode="mpi_only"),
    "cube-whole-crash": _case(True, 27, "crash", {"level"}),
    "warped-mixed-crash": _case(False, 64, "crash", {"cells", "level"}),
    "cube-whole-engine": _case(True, 27, "engine", {"level"}),
    "warped-partial-engine": _case(False, 4, "engine", {"cells"}),
    "cube-whole-sigma1d": _case(True, 27, "des", {"level"}, sigma_1d=True),
    "warped-mixed-sigma1d": _case(False, 64, "des", {"cells", "level"}, sigma_1d=True),
    "cube-coarsened": _case(True, 27, "coarsened", {"level"}),
    "warped-coarsened": _case(False, 64, "coarsened", {"cells", "level"}),
    "cube-partial-4g": _case(True, 8, "des", {"cells"}, groups=4),
    "cube-whole-4g": _case(True, 27, "des", {"level"}, groups=4),
    "warped-mixed-4g": _case(False, 64, "des", {"cells", "level"}, groups=4),
    "cube-partial-nofixup": _case(True, 8, "des", {"cells"}, fixup=False),
    "cube-whole-nofixup": _case(True, 27, "des", {"level"}, fixup=False),
    "cube-partial-step": _case(True, 8, "des", {"cells"}, scheme="step"),
    "cube-whole-step": _case(True, 27, "des", {"level"}, scheme="step"),
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
    """Every program-driven sweep - whole-patch runs through the patch
    plans, partial runs through ``solve_cells``, on both mesh families,
    both runtime modes, under a crash, serially and coarsened - gives
    the flux and leakage of ``sweep_once()`` bit for bit."""
    structured, grain, mode, run, paths, sigma_1d, kw = DES_CASES[case]
    s = _des_solver(structured, grain, mode, **kw)
    if sigma_1d:
        s.sigma_t_v = s.sigma_t_v[:, 0].copy()
    reference, leakage, _ = s.sweep_once()
    calls = _count_kernel_calls(monkeypatch)
    phi, leak = RUNS[run](s, mode)
    assert np.array_equal(phi, reference)
    assert np.array_equal(leak, leakage)
    assert {path for path, n in calls.items() if n} == paths


def test_whole_patch_run_makes_one_solve_level_call_per_patch_level(monkeypatch):
    """Call structure, no timing: a whole-patch run is one batched
    ``solve_level`` per patch-local Kahn front of its patch and no
    ``solve_cells``; a partial run is one ``solve_cells`` call."""
    calls = _count_kernel_calls(monkeypatch)
    for grain, whole in ((27, True), (8, False)):
        s = _des_solver(True, grain)
        programs, _ = s.build_programs()
        # The programs of the patch without upwind patches (one corner
        # patch per angle): their first run has nothing to wait for.
        checked = 0
        for prog in programs:
            g = prog.graph
            if int(g.init_counts.sum()) != g.num_local_edges:
                continue
            _, fronts = kahn_fronts(g.n_local, g.dl_indptr, g.dl_target, "patch")
            prog.init()
            calls.update(cells=0, level=0)
            prog.compute()
            checked += 1
            if whole:
                assert prog.remaining_workload() == 0
                assert calls == {"cells": 0, "level": fronts}
                _, first = s.patch_plan(prog.task)
                assert first[prog.patch + 1] - first[prog.patch] == fronts
            else:
                assert prog.remaining_workload() == g.n_local - grain
                assert calls == {"cells": 1, "level": 0}
        assert checked == s.quadrature.num_angles


def test_engine_sweep_kernel_calls_are_the_patch_levels(monkeypatch):
    """Over a whole sweep - the recording one and a replaying one - and
    over coarsened programs, every run of the 27-cell patches is whole:
    ``solve_level`` calls add up to every (patch, angle)'s local fronts
    (7 for a 3x3x3 patch) and ``solve_cells`` never runs."""
    s = _des_solver(True, 27)
    npat, na = s.pset.num_patches, s.quadrature.num_angles
    calls = _count_kernel_calls(monkeypatch)
    for _ in range(2):
        calls.update(cells=0, level=0)
        s.sweep_once(mode="engine")
        assert calls == {"cells": 0, "level": npat * na * 7}
    programs, _ = s.build_coarsened_programs(s.record_coarsened())
    calls.update(cells=0, level=0)
    engine = SerialEngine()
    for prog in programs:
        engine.add_program(prog)
    engine.run()
    assert calls == {"cells": 0, "level": npat * na * 7}


def test_patch_plans_share_index_tables_within_an_angle_set():
    """One compiled plan per angle set; its other angles are twins that
    share every index table and level and own only their coefficients,
    which equal what compiling the angle on its own gives."""
    s = _des_solver(True, 27)
    for angles in _sets(s):
        lead, first = s.patch_plan(angles[0])
        for a in angles:
            plan, f = s.patch_plan(a)
            assert s.patch_plan(a)[0] is plan and f is first
            assert plan.kernels == [s.kernel(a)]
            for name in ("vertex", "cell", "slots", "osl", "oseg", "pair", "levels"):
                assert getattr(plan, name) is getattr(lead, name)
            alone = s._compile_patch_plan(a)[0]
            assert np.array_equal(plan.coeff, alone.coeff)
            assert np.array_equal(plan.den2, alone.den2)
            assert (a == angles[0]) == (plan is lead)


def _solve_patch_levels(s, plan, angle):
    """Every level of a patch plan through ``solve_level`` on fresh
    arrays (what the whole-patch runs of ``angle`` do, patch by patch)."""
    k = s.kernel(angle)
    src_v = s._angle_source_v(np.zeros((s.mesh.num_cells, s.num_groups)))
    src_p = src_v[plan.cell]
    den_p = k.removal(s.sigma_t_v)[plan.cell]
    psi_faces = k.new_face_array(s.num_groups)
    s._apply_bc(k, psi_faces, angle)
    psi_p = np.empty_like(src_p)
    for level in range(len(plan.levels)):
        k.solve_level(plan, level, src_p, den_p, psi_faces, psi_p)
    return psi_faces, psi_p


def test_launch_tables_are_built_once(monkeypatch):
    """The first ``solve_level`` of a plan builds its launch table; no
    later sweep, recording or replaying, builds it again - and the
    index part is built once per angle set, not per angle."""
    built = []
    real = SweepPlan._launch_index

    def counted(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(SweepPlan, "_launch_index", counted)
    s = _des_solver(True, 27)
    s.sweep_once(mode="engine")
    plans = [s.patch_plan(a)[0] for a in range(s.quadrature.num_angles)]
    tables = [p._launch for p in plans]
    assert all(t is not None for t in tables)
    assert len(built) == len(_sets(s))
    for _ in range(2):
        s.sweep_once(mode="engine")
    assert len(built) == len(_sets(s))
    assert all(p._launch is t for p, t in zip(plans, tables))
    assert all(p.launch_table() is t for p, t in zip(plans, tables))


def test_twins_share_the_launch_index_and_own_their_coefficients():
    """A plan and its twins hold one index part (the same list, the same
    views); each angle's coefficient views are its own and view its own
    ``coeff``."""
    s = _des_solver(True, 27)
    for angles in _sets(s):
        lead = s.patch_plan(angles[0])[0]
        assert lead.slots.dtype == np.intp  # one-angle plans index without converting
        index, coeffs = lead.launch_table()
        for a in angles[1:]:
            twin = s.patch_plan(a)[0]
            t_index, t_coeffs = twin.launch_table()
            assert t_index is index
            assert t_coeffs is not coeffs
            for mine, theirs in zip(t_coeffs, coeffs):
                assert mine is not theirs
                assert np.shares_memory(mine, twin.coeff)
                assert not np.shares_memory(mine, lead.coeff)


def test_twin_made_after_its_leads_table_solves_with_its_own_coefficients():
    """Regression guard: ``twin``'s shallow copy must not carry the
    lead's cached table, or a twin made after its lead had solved would
    sweep with the lead's coefficients."""
    s = _des_solver(True, 27)
    lead_angle, a = _sets(s)[0][:2]
    lead = s.patch_plan(lead_angle)[0]
    _solve_patch_levels(s, lead, lead_angle)  # the lead's table exists
    assert lead._launch is not None
    twin = lead.twin(s.kernel(a))
    assert twin._launch is None
    alone = s._compile_patch_plan(a)[0]
    _parts_equal(_solve_patch_levels(s, twin, a), _solve_patch_levels(s, alone, a))
    assert twin.launch_table()[0] is lead.launch_table()[0]


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
