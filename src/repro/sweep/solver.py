"""Multigroup Sn transport solver driven by data-driven sweeps.

:class:`SnSolver` assembles the pieces: mesh + patches, quadrature,
materials, spatial kernel, sweep DAG topology and priorities.  A
*source iteration* repeatedly sweeps all angles with the scattering
source lagged, which is the solver structure of JSNT-S / JSNT-U.

Three sweep execution modes produce identical numerics:

* ``fast-level`` - the default: every dependency level of every angle
  at once, through the compiled :meth:`SnSolver.sweep_plan`; the
  quickest way to converge a flux.
* ``fast``   - direct per-angle topological traversal, cell by cell
  (no patch machinery); the scalar reference.
* ``engine`` - the patch-centric data-driven execution of Listing 1 via
  :class:`repro.core.SerialEngine`; exercises exactly the program that
  the DES runtime schedules.  Whole-patch runs solve level-batched
  through :meth:`SnSolver.patch_plan`, partial runs cell by cell.

Bitwise agreement between modes is part of the test suite: the
data-driven machinery must not change the physics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import ReproError
from ..core.engine import EngineStats, SerialEngine
from ..framework.connectivity import build_boundary, build_interfaces
from ..framework.patch import PatchSet
from ..mesh.structured import StructuredMesh
from .dag import (
    SweepTopology, angle_sets, csr_by_source, directed_edges, kahn_fronts,
    topological_levels,
)
from .kernels import _TOL, AngleKernel, SweepPlan
from .materials import MaterialMap
from .priorities import PriorityStrategy, apply_priorities
from .quadrature import Quadrature
from .sweep_program import SweepPatchProgram, check_grain

__all__ = ["SnSolver", "SweepResult", "FOUR_PI"]

FOUR_PI = 4.0 * np.pi


class _AngleSolve:
    """The solve callback of one angle's programs over one source.

    A partial run calls :meth:`solve_run` with its patch-local ids: the
    kernel solves the cells one by one (:meth:`AngleKernel.solve_cells`),
    their global ids read as ints from ``cell_ids``, one list per patch
    shared by the build's callbacks.  A whole-patch run calls
    :meth:`solve_patch` instead: the patch's levels of the angle's
    :meth:`SnSolver.patch_plan`, one batched ``solve_level`` each, on
    source and denominators gathered into plan order at the angle's
    first whole-patch run.  Programs recognise it by ``solve_patch``
    and never call it with ``(cells, angle)`` as they call a user's.
    """

    __slots__ = ("solver", "angle", "kernel", "src_v", "den", "pf", "pc",
                 "cell_ids", "_plan")

    def __init__(self, solver, angle, src_v, den, pf, pc, cell_ids):
        self.solver = solver
        self.angle = angle
        self.kernel = solver.kernel(angle)
        self.src_v, self.den, self.pf, self.pc = src_v, den, pf, pc
        self.cell_ids = cell_ids
        self._plan = None

    def solve_run(self, patch: int, local) -> None:
        ids = self.cell_ids.get(patch)
        if ids is None:
            ids = self.cell_ids[patch] = self.solver.pset.patches[patch].cells.tolist()
        self.kernel.solve_cells(
            [ids[v] for v in local], self.src_v, self.den, self.pf, self.pc
        )

    def solve_patch(self, patch: int) -> None:
        if self._plan is None:
            plan, first = self.solver.patch_plan(self.angle)
            src_p, den_p = self.src_v[plan.cell], self.den[plan.cell]
            self._plan = plan, first, src_p, den_p, np.empty_like(src_p)
        plan, first, src_p, den_p, psi_p = self._plan
        lo, hi = first[patch], first[patch + 1]
        solve_level, pf = self.kernel.solve_level, self.pf
        for level in range(lo, hi):
            solve_level(plan, level, src_p, den_p, pf, psi_p)
        c0, c1 = plan.levels[lo][0], plan.levels[hi - 1][1]
        self.pc[plan.cell[c0:c1]] = psi_p[c0:c1]


@dataclass
class SweepResult:
    """Converged (or best-effort) solution of a source iteration."""

    phi: np.ndarray  # (ncells, groups) scalar flux
    leakage: np.ndarray  # (groups,) outgoing boundary current
    iterations: int
    residuals: list[float]
    converged: bool
    engine_stats: list[EngineStats] = field(default_factory=list)


class SnSolver:
    """Discrete-ordinates solver on a patch decomposition."""

    def __init__(
        self,
        pset: PatchSet,
        quadrature: Quadrature,
        materials: MaterialMap,
        source: np.ndarray,
        scheme: str | None = None,
        fixup: bool = True,
        boundary_flux: float = 0.0,
        grain: int = 64,
        strategy: PriorityStrategy | str = "slbd+slbd",
        validate_dag: bool = False,
        reflecting: bool = False,
    ):
        self.pset = pset
        self.mesh = pset.mesh
        self.quadrature = quadrature
        self.materials = materials
        ng = materials.num_groups
        source = np.asarray(source, dtype=float)
        if source.ndim == 1:
            source = source[:, None]
        if source.shape != (self.mesh.num_cells, ng):
            raise ReproError(
                f"source must be ({self.mesh.num_cells}, {ng}); got {source.shape}"
            )
        self.source = source
        if scheme is None:
            scheme = "dd" if isinstance(self.mesh, StructuredMesh) else "step"
        self.scheme = scheme
        self.fixup = fixup
        self.boundary_flux = boundary_flux
        self.grain = check_grain(grain)
        self.strategy = (
            PriorityStrategy.parse(strategy)
            if isinstance(strategy, str)
            else strategy
        )
        self.validate_dag = validate_dag

        self.interfaces = build_interfaces(self.mesh)
        self.boundary = build_boundary(self.mesh)
        self.volumes = (
            self.mesh.cell_volumes
            if hasattr(self.mesh, "cell_volumes")
            else np.full(self.mesh.num_cells, self.mesh.cell_volume)
        )
        self.sigma_t_v = materials.sigma_t_cell * self.volumes[:, None]

        self._kernels: dict[int, AngleKernel] = {}
        self._topo_orders: dict[int, np.ndarray] = {}
        self._plan: SweepPlan | None = None
        self._sets: list[list[int]] | None = None
        self._patch_plans: dict[int, tuple[SweepPlan, list[int]]] = {}
        self._topology: SweepTopology | None = None
        self._static_prio: dict[tuple[int, int], float] | None = None

        # Reflecting boundaries: lagged outgoing boundary fluxes, one
        # slab per angle, swapped after every full sweep.
        self.reflecting = reflecting
        self._angle_mirror: np.ndarray | None = None
        self._bnd_out_prev: np.ndarray | None = None
        self._bnd_out_next: np.ndarray | None = None
        if reflecting:
            self._setup_reflection()

    # -- reflecting boundaries -------------------------------------------------------

    def _setup_reflection(self) -> None:
        """Precompute angle mirrors and the lagged boundary-flux store.

        Specular reflection on axis-aligned boundaries maps each
        ordinate to the one with the face-normal component flipped;
        level-symmetric and product quadratures are closed under these
        sign flips.  The incoming flux of angle ``a`` on a boundary
        face equals the *previous sweep's* outgoing flux of the
        mirrored angle on the same face (standard lagged treatment,
        converged by the source iteration).
        """
        n = self.boundary.normal
        axis = np.argmax(np.abs(n), axis=1)
        aligned = np.abs(n[np.arange(len(n)), axis])
        if np.any(aligned < 1.0 - 1e-9):
            raise ReproError(
                "reflecting boundaries require axis-aligned boundary faces"
            )
        dirs = self.quadrature.directions
        na = len(dirs)
        ndim = dirs.shape[1]
        mirror = np.full((ndim, na), -1, dtype=np.int64)
        for ax in range(ndim):
            flipped = dirs.copy()
            flipped[:, ax] *= -1.0
            for a in range(na):
                match = np.nonzero(
                    np.all(np.abs(dirs - flipped[a]) < 1e-9, axis=1)
                )[0]
                if len(match) != 1:
                    raise ReproError(
                        "quadrature is not closed under axis reflection; "
                        "use a level-symmetric or product set"
                    )
                mirror[ax, a] = match[0]
        self._angle_mirror = mirror
        shape = (na, self.boundary.num_faces, self.num_groups)
        self._bnd_out_prev = np.zeros(shape)
        self._bnd_out_next = np.zeros(shape)

    def _capture_outgoing(self, angle: int, psi_faces: np.ndarray) -> None:
        """Record this sweep's outgoing boundary fluxes for the lag."""
        if not self.reflecting:
            return
        k = self.kernel(angle)
        self._bnd_out_next[angle, k.outflow_rows] = psi_faces[k.outflow_slots]

    def finish_reflection_sweep(self) -> None:
        """Swap the lagged boundary store after a full sweep."""
        if self.reflecting:
            self._bnd_out_prev, self._bnd_out_next = (
                self._bnd_out_next,
                self._bnd_out_prev,
            )

    # -- cached structures ---------------------------------------------------------

    @property
    def num_groups(self) -> int:
        return self.materials.num_groups

    def kernel(self, angle: int) -> AngleKernel:
        if angle not in self._kernels:
            na = self.quadrature.num_angles
            if not 0 <= angle < na:
                raise ReproError(f"no kernel for angle {angle!r}: angles are 0..{na - 1}")
            self._kernels[angle] = AngleKernel(
                self.mesh,
                self.interfaces,
                self.boundary,
                self.quadrature.directions[angle],
                scheme=self.scheme,
                fixup=self.fixup,
            )
        return self._kernels[angle]

    @property
    def topology(self) -> SweepTopology:
        if self._topology is None:
            self._topology = SweepTopology(
                self.pset,
                self.quadrature,
                interfaces=self.interfaces,
                validate=self.validate_dag,
            )
            self._static_prio = apply_priorities(self._topology, self.strategy)
        return self._topology

    @property
    def static_priorities(self) -> dict[tuple[int, int], float]:
        _ = self.topology
        return self._static_prio

    def topo_order(self, angle: int) -> np.ndarray:
        """Global topological cell order for one angle (fast mode)."""
        if angle not in self._topo_orders:
            u, v = directed_edges(
                self.interfaces, self.quadrature.directions[angle]
            )
            self._topo_orders[angle] = np.concatenate(
                topological_levels(self.mesh.num_cells, u, v)
            )
        return self._topo_orders[angle]

    def _angle_sets(self) -> list[list[int]]:
        """:func:`angle_sets` over the interior and boundary faces: the
        angles whose kernels have equal index tables (e.g. one octant
        of a structured mesh)."""
        if self._sets is None:
            self._sets = angle_sets(
                self.quadrature.directions, self.interfaces.normal,
                self.boundary.normal, tol=_TOL,
            )
        return self._sets

    def sweep_plan(self) -> SweepPlan:
        """The compiled level tables of the ``fast-level`` path: one
        :class:`SweepPlan` over every (angle, cell) vertex, the Kahn
        peel run once per angle set (:meth:`_angle_sets`); built at the
        first call, then reused by every sweep."""
        if self._plan is None:
            dirs = self.quadrature.directions
            levels: list = [None] * len(dirs)
            for angles in self._angle_sets():
                u, v = directed_edges(self.interfaces, dirs[angles[0]])
                shared = topological_levels(self.mesh.num_cells, u, v)
                for a in angles:
                    levels[a] = shared
            self._plan = SweepPlan([self.kernel(a) for a in range(len(dirs))], levels)
        return self._plan

    def patch_plan(self, angle: int) -> tuple[SweepPlan, list[int]]:
        """The compiled level tables of whole-patch runs of ``angle``:
        ``(plan, first)``, a one-angle :class:`SweepPlan` over every
        cell whose levels are, patch after patch, the patch-local Kahn
        fronts (meshtaichi ``Patcher`` layout: patch ``p`` owns levels
        ``first[p]:first[p + 1]``).  A whole-patch run finds every
        upwind face from another patch written, so those levels are its
        whole dependency order - and only its: the plan is solved patch
        by patch, never by :meth:`SweepPlan.sweep`.  Built for an angle
        set at the first whole-patch run of one of its angles; the
        set's other angles get a :meth:`SweepPlan.twin` sharing every
        index table and level, with only their coefficients their own."""
        got = self._patch_plans.get(angle)
        if got is None:
            kernel = self.kernel(angle)  # refuses an unknown angle
            lead = next(s for s in self._angle_sets() if angle in s)[0]
            if lead not in self._patch_plans:
                self._patch_plans[lead] = self._compile_patch_plan(lead)
            plan, first = self._patch_plans[lead]
            if angle != lead:
                plan = plan.twin(kernel)
            got = self._patch_plans[angle] = plan, first
        return got

    def _compile_patch_plan(self, angle: int) -> tuple[SweepPlan, list[int]]:
        """One Kahn peel of the union of the patches' local sweep
        graphs: its fronts are the patch-local ones."""
        ncells, cp = self.mesh.num_cells, self.pset.cell_patch
        u, v = directed_edges(self.interfaces, self.quadrature.directions[angle])
        local = cp[u] == cp[v]
        front, _ = kahn_fronts(
            ncells, *csr_by_source(u[local], ncells, v[local]), "patch sweep graph"
        )
        depth = np.zeros(self.pset.num_patches, dtype=np.int64)
        np.maximum.at(depth, cp, front + 1)
        first = np.concatenate(([0], np.cumsum(depth)))
        level_of = first[cp] + front
        order = np.argsort(level_of, kind="stable")
        bounds = np.searchsorted(level_of[order], np.arange(first[-1] + 1)).tolist()
        levels = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        return SweepPlan([self.kernel(angle)], [levels]), first.tolist()

    # -- single sweep -----------------------------------------------------------------

    def _angle_source_v(self, scatter: np.ndarray) -> np.ndarray:
        """Cell-integrated per-angle source ``(q + S) V / 4pi``."""
        return (self.source + scatter) * self.volumes[:, None] / FOUR_PI

    def _apply_bc(self, kernel: AngleKernel, psi_faces: np.ndarray, angle: int):
        """Apply the boundary condition for one angle.

        ``boundary_flux`` may be a scalar (isotropic incident / vacuum)
        or a callable ``fn(face_centroids, direction) -> values`` for
        position- and angle-dependent incident flux.
        """
        if self.reflecting:
            k = kernel
            mirrors = self._angle_mirror[k.inflow_axes, angle]
            psi_faces[k.inflow_slots] = self._bnd_out_prev[
                mirrors, k.inflow_rows
            ]
            return
        bf = self.boundary_flux
        if callable(bf):
            vals = np.asarray(
                bf(kernel.inflow_centroids, self.quadrature.directions[angle]),
                dtype=float,
            )
            kernel.apply_boundary(psi_faces, vals)
        else:
            kernel.apply_boundary(psi_faces, bf)

    def sweep_once(
        self,
        scatter: np.ndarray | None = None,
        mode: str = "fast-level",
        record_clusters: bool = False,
    ):
        """One full sweep of all angles; returns ``(phi, leakage, stats)``.

        ``stats`` is the :class:`EngineStats` of engine mode, or None.
        The default ``fast-level`` mode sweeps each wavefront level of
        all angles at once with batched-BLAS kernels over the compiled
        :meth:`sweep_plan`; it is bitwise identical to the scalar
        ``fast`` mode (enforced by tests/test_kernels_level.py).
        """
        ng = self.num_groups
        ncells = self.mesh.num_cells
        if scatter is None:
            scatter = np.zeros((ncells, ng))
        src_v = self._angle_source_v(scatter)
        if mode == "fast-level":
            # The angles advance together, one slab each; ``accumulate``
            # then sums in ascending angle order, the float sums of ``fast``.
            plan = self.sweep_plan()
            na = len(plan.kernels)
            psi_faces = np.zeros((na, plan.kernels[0].num_slots, ng))
            for a, (k, pf) in enumerate(zip(plan.kernels, psi_faces)):
                self._apply_bc(k, pf, a)
            psi_cell = np.empty((na, ncells, ng))
            plan.sweep(src_v, self.sigma_t_v, psi_faces, psi_cell)
            phi, leakage = self.accumulate(dict(enumerate(zip(psi_faces, psi_cell))))
            return phi, leakage, None
        if mode == "fast":
            phi = np.zeros((ncells, ng))
            leakage = np.zeros(ng)
            psi_cell = np.zeros((ncells, ng))
            for a in range(self.quadrature.num_angles):
                k = self.kernel(a)
                psi_faces = k.new_face_array(ng)
                self._apply_bc(k, psi_faces, a)
                k.solve_cells(
                    self.topo_order(a), src_v, k.removal(self.sigma_t_v),
                    psi_faces, psi_cell,
                )
                self._capture_outgoing(a, psi_faces)
                w = self.quadrature.weights[a]
                phi += w * psi_cell
                leakage += w * k.leakage(psi_faces)
            self.finish_reflection_sweep()
            return phi, leakage, None
        if mode == "engine":
            programs, faces = self.build_programs(
                src_v, record_clusters=record_clusters
            )
            engine = SerialEngine()
            for prog in programs:
                engine.add_program(prog)
            stats = engine.run()
            phi, leakage = self.accumulate(faces)
            return phi, leakage, stats
        raise ReproError(f"unknown sweep mode {mode!r}")

    # -- data-driven program construction (shared with the DES runtime) ---------------

    def build_programs(
        self,
        src_v: np.ndarray | None = None,
        scatter: np.ndarray | None = None,
        compute: bool = True,
        record_clusters: bool = False,
        grain: int | None = None,
        resilient: bool = False,
    ):
        """Instantiate one SweepPatchProgram per (patch, angle).

        Returns ``(programs, face_arrays)`` where ``face_arrays[a]`` is
        the per-angle ``(psi_faces, psi_cell)`` pair written by the
        programs' solve callbacks (None entries when ``compute`` is
        False - scheduling-only runs used by the performance studies).

        ``resilient`` builds programs with idempotent stream delivery
        (edge-id dedup), required to run them under a fault plan with
        process crashes - see :mod:`repro.runtime.faults`.
        """
        grain = check_grain(grain if grain is not None else self.grain)
        topo = self.topology
        faces, solve_fns = self._make_face_solvers(src_v, scatter, compute)
        programs = []
        dynamic = self.strategy.patch == "slbd"
        prio, per_item = self.static_priorities, 8 * self.num_groups
        for (p, a), graph in topo.graphs.items():
            prog = SweepPatchProgram(
                graph,
                cells_global=self.pset.patches[p].cells,
                grain=grain,
                solve_fn=solve_fns.get(a),
                static_priority=prio[(p, a)],
                dynamic_priority=dynamic,
                bytes_per_item=per_item,
                record_clusters=record_clusters,
                resilient=resilient,
                angle=a,
            )
            programs.append(prog)
        return programs, faces

    def _make_face_solvers(
        self, src_v: np.ndarray | None, scatter: np.ndarray | None, compute: bool
    ):
        """Per-angle (psi_faces, psi_cell) arrays plus solve callbacks
        (:class:`_AngleSolve`) over ``src_v`` (default: the source of
        ``scatter``, default zero); both empty for a scheduling-only
        build."""
        faces: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        solve_fns: dict[int, object] = {}
        if not compute:
            return faces, solve_fns
        ng = self.num_groups
        ncells = self.mesh.num_cells
        if src_v is None:
            if scatter is None:
                scatter = np.zeros((ncells, ng))
            src_v = self._angle_source_v(scatter)
        cell_ids: dict[int, list[int]] = {}
        for a in range(self.quadrature.num_angles):
            k = self.kernel(a)
            pf = k.new_face_array(ng)
            self._apply_bc(k, pf, a)
            pc = np.zeros((ncells, ng))
            faces[a] = (pf, pc)
            den = k.removal(self.sigma_t_v)  # once per angle, not per cluster
            solve_fns[a] = _AngleSolve(self, a, src_v, den, pf, pc, cell_ids)
        return faces, solve_fns

    def record_coarsened(self, grain: int | None = None):
        """One scheduling-only engine sweep that records clusters, then
        builds the coarsened graph (Sec. V-E).  Returns ``cgs``."""
        from .coarsened import build_coarsened

        programs, _ = self.build_programs(
            compute=False, record_clusters=True, grain=grain
        )
        engine = SerialEngine()
        for prog in programs:
            engine.add_program(prog)
        engine.run()
        return build_coarsened(self.topology, programs)

    def build_coarsened_programs(
        self,
        cgs,
        src_v: np.ndarray | None = None,
        scatter: np.ndarray | None = None,
        compute: bool = True,
    ):
        """Instantiate CoarsenedSweepProgram per (patch, angle) from ``cgs``."""
        from .coarsened import CoarsenedSweepProgram

        faces, solve_fns = self._make_face_solvers(src_v, scatter, compute)
        programs = []
        prio, per_item = self.static_priorities, 8 * self.num_groups
        for (p, a), cg in cgs.items():
            programs.append(
                CoarsenedSweepProgram(
                    cg,
                    cells_global=self.pset.patches[p].cells,
                    solve_fn=solve_fns.get(a),
                    static_priority=prio[(p, a)],
                    bytes_per_item=per_item,
                )
            )
        return programs, faces

    def accumulate(self, faces) -> tuple[np.ndarray, np.ndarray]:
        """Scalar flux and leakage from per-angle arrays of a program run."""
        ng = self.num_groups
        phi = np.zeros((self.mesh.num_cells, ng))
        leakage = np.zeros(ng)
        for a, (pf, pc) in faces.items():
            self._capture_outgoing(a, pf)
            w = self.quadrature.weights[a]
            phi += w * pc
            leakage += w * self.kernel(a).leakage(pf)
        self.finish_reflection_sweep()
        return phi, leakage

    # -- source iteration ------------------------------------------------------------------

    def source_iteration(
        self,
        tol: float = 1e-6,
        max_iterations: int = 200,
        mode: str = "fast-level",
        accelerate: bool = False,
    ) -> SweepResult:
        """Iterate sweeps with lagged scattering until the flux converges.

        ``accelerate`` enables Lyusternik extrapolation: once the
        iteration's error-reduction ratio rho stabilizes, the fixed
        point is extrapolated as ``phi + d * rho / (1 - rho)`` - the
        classic cheap accelerator for high-scattering-ratio problems
        (source iteration's spectral radius approaches c = sigma_s /
        sigma_t, so plain iteration stalls exactly where the physics is
        most interesting).
        """
        ng = self.num_groups
        phi = np.zeros((self.mesh.num_cells, ng))
        residuals: list[float] = []
        stats_list: list[EngineStats] = []
        leakage = np.zeros(ng)
        prev_res = None
        ratio_hist: list[float] = []
        for it in range(1, max_iterations + 1):
            scatter = self.materials.scatter_source(phi)
            phi_new, leakage, stats = self.sweep_once(scatter, mode=mode)
            if stats is not None:
                stats_list.append(stats)
            diff = phi_new - phi
            scale = float(np.max(np.abs(phi_new))) or 1.0
            res = float(np.max(np.abs(diff))) / scale
            residuals.append(res)
            if accelerate and prev_res is not None and prev_res > 0:
                ratio_hist.append(res / prev_res)
                if len(ratio_hist) >= 3:
                    r3 = ratio_hist[-3:]
                    rho = r3[-1]
                    # Extrapolate only once the ratio has stabilized.
                    if (
                        0.05 < rho < 0.99
                        and max(r3) - min(r3) < 0.02
                    ):
                        phi_new = phi_new + diff * (rho / (1.0 - rho))
                        ratio_hist.clear()
                        prev_res = None
                        phi = phi_new
                        if res < tol:
                            return SweepResult(
                                phi, leakage, it, residuals, True, stats_list
                            )
                        continue
            prev_res = res
            phi = phi_new
            if res < tol:
                return SweepResult(phi, leakage, it, residuals, True, stats_list)
        return SweepResult(
            phi, leakage, max_iterations, residuals, False, stats_list
        )

    # -- diagnostics ------------------------------------------------------------------------

    def balance_residual(self, result: SweepResult) -> float:
        """Relative particle-balance error: |source - absorption - leakage|.

        Exact (to round-off) for the step scheme and for DD without
        fixup; the set-to-zero fixup intentionally trades a little
        conservation for positivity.
        """
        produced = float((self.source * self.volumes[:, None]).sum())
        sigma_a = self.materials.sigma_a_cell()
        absorbed = float(
            (sigma_a * result.phi * self.volumes[:, None]).sum()
        )
        leaked = 0.0 if self.reflecting else float(result.leakage.sum())
        if produced == 0:
            return abs(absorbed + leaked)
        return abs(produced - absorbed - leaked) / produced
