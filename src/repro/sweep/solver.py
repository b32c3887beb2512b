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
  the DES runtime schedules.

A solver-built program set computes no flux in its runs.  Its solve
callback stamps the order the runs solve the cells in
(:class:`OrderRecord`), and :meth:`SnSolver.accumulate` checks that
order against every angle's DAG, exactly, before it sweeps the source
once, ``fast-level``.  The stream payloads carry vertex ids, not flux,
so the order is all a run decides.  ``fast`` and ``fast-level`` agree
bitwise, which is part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import ReproError
from ..core.engine import EngineStats, SerialEngine
from ..framework.connectivity import build_boundary, build_interfaces
from ..framework.patch import PatchSet
from ..mesh.structured import StructuredMesh
from .dag import SweepTopology, angle_sets, directed_edges, topological_levels
from .kernels import _TOL, AngleKernel, SweepPlan
from .materials import MaterialMap
from .priorities import PriorityStrategy, apply_priorities
from .quadrature import Quadrature
from .sweep_program import SweepPatchProgram, check_grain

__all__ = ["SnSolver", "SweepResult", "OrderRecord", "FOUR_PI"]

FOUR_PI = 4.0 * np.pi


class OrderRecord:
    """What a solver-built program set leaves behind: the order in which
    its runs solved the cells, and the source that sweep is for.

    ``first[a, c]`` is the global solve sequence number of cell ``c``'s
    first solve in angle ``a`` (-1 until then).  :meth:`stamp` is the
    programs' Listing-1 solve callback: it numbers a run's cells in pop
    order, from ``clock`` on, and never renumbers a cell - a re-execution
    after failover solves again, but the first solve is the one that
    released the downwind cells.  The record lives beside the programs,
    not in their state, so an in-run restore leaves it alone;
    :class:`repro.persist.FluxArrayState` saves and restores it across a
    process restart.  :meth:`SnSolver.accumulate` checks the order and
    sweeps ``src_v`` once.
    """

    __slots__ = ("first", "clock", "src_v")

    def __init__(self, num_angles: int, src_v: np.ndarray):
        self.first = np.full((num_angles, len(src_v)), -1, dtype=np.int64)
        self.clock = 0
        self.src_v = src_v

    def stamp(self, cells: np.ndarray, angle: int) -> None:
        row = self.first[angle]
        fresh = cells[row[cells] < 0]
        n = len(fresh)
        row[fresh] = np.arange(self.clock, self.clock + n)
        self.clock += n


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
        self._edges: list | None = None
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

    def _angle_edges(self) -> list:
        """``(angles, u, v)`` per :func:`angle_sets` set over the
        interior and boundary faces - the angles whose kernels have
        equal index tables (e.g. one octant of a structured mesh) - and
        its sweep DAG's edges ``u -> v``, derived once."""
        if self._edges is None:
            dirs = self.quadrature.directions
            self._edges = [
                (angles, *directed_edges(self.interfaces, dirs[angles[0]]))
                for angles in angle_sets(
                    dirs, self.interfaces.normal, self.boundary.normal, tol=_TOL
                )
            ]
        return self._edges

    def sweep_plan(self) -> SweepPlan:
        """The compiled level tables of the ``fast-level`` path: one
        :class:`SweepPlan` over every (angle, cell) vertex, the Kahn
        peel run once per angle set (:meth:`_angle_edges`); built at the
        first call, then reused by every sweep."""
        if self._plan is None:
            na = self.quadrature.num_angles
            levels: list = [None] * na
            for angles, u, v in self._angle_edges():
                shared = topological_levels(self.mesh.num_cells, u, v)
                for a in angles:
                    levels[a] = shared
            self._plan = SweepPlan([self.kernel(a) for a in range(na)], levels)
        return self._plan

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
            return (*self._sweep_level(src_v), None)
        if mode == "fast":
            psi_faces = self._face_arrays()
            psi_cell = np.zeros((len(psi_faces), ncells, ng))
            for a, (pf, pc) in enumerate(zip(psi_faces, psi_cell)):
                k = self.kernel(a)
                k.solve_cells(self.topo_order(a), src_v, k.removal(self.sigma_t_v), pf, pc)
            return (*self._flux(psi_faces, psi_cell), None)
        if mode == "engine":
            programs, record = self.build_programs(
                src_v, record_clusters=record_clusters
            )
            engine = SerialEngine()
            for prog in programs:
                engine.add_program(prog)
            stats = engine.run()
            phi, leakage = self.accumulate(record)
            return phi, leakage, stats
        raise ReproError(f"unknown sweep mode {mode!r}")

    def _sweep_level(self, src_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(phi, leakage)`` of one ``fast-level`` sweep of ``src_v``: the
        angles advance together, one slab each."""
        psi_faces = self._face_arrays()
        psi_cell = np.empty((len(psi_faces), self.mesh.num_cells, self.num_groups))
        self.sweep_plan().sweep(src_v, self.sigma_t_v, psi_faces, psi_cell)
        return self._flux(psi_faces, psi_cell)

    def _face_arrays(self) -> np.ndarray:
        """``(angles, slots, groups)`` face fluxes holding every angle's
        boundary condition."""
        na = self.quadrature.num_angles
        psi_faces = np.zeros((na, self.kernel(0).num_slots, self.num_groups))
        for a, pf in enumerate(psi_faces):
            self._apply_bc(self.kernel(a), pf, a)
        return psi_faces

    def _flux(self, psi_faces, psi_cell) -> tuple[np.ndarray, np.ndarray]:
        """Scalar flux and leakage of a full sweep's per-angle fluxes,
        summed in ascending angle order (the same float sums whichever
        mode swept).  With reflecting boundaries, records the sweep's
        outgoing boundary fluxes and swaps the lagged store."""
        phi = np.zeros(psi_cell.shape[1:])
        leakage = np.zeros(self.num_groups)
        for a, (pf, pc) in enumerate(zip(psi_faces, psi_cell)):
            k = self.kernel(a)
            if self.reflecting:
                self._bnd_out_next[a, k.outflow_rows] = pf[k.outflow_slots]
            w = self.quadrature.weights[a]
            phi += w * pc
            leakage += w * k.leakage(pf)
        if self.reflecting:
            self._bnd_out_prev, self._bnd_out_next = self._bnd_out_next, self._bnd_out_prev
        return phi, leakage

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

        Returns ``(programs, record)``: the :class:`OrderRecord` the
        programs' solve callback stamps, for the source ``src_v``
        (default: the source of ``scatter``, default zero) - hand it to
        :meth:`accumulate` after the run.  ``record`` is None when
        ``compute`` is False: scheduling-only runs, used by the
        performance studies, call no solve callback.

        ``resilient`` builds programs with idempotent stream delivery
        (edge-id dedup), required to run them under a fault plan with
        process crashes - see :mod:`repro.runtime.faults`.
        """
        grain = check_grain(grain if grain is not None else self.grain)
        topo = self.topology
        record = self._order_record(src_v, scatter, compute)
        programs = []
        dynamic = self.strategy.patch == "slbd"
        prio, per_item = self.static_priorities, 8 * self.num_groups
        for (p, a), graph in topo.graphs.items():
            prog = SweepPatchProgram(
                graph,
                cells_global=self.pset.patches[p].cells,
                grain=grain,
                solve_fn=record and record.stamp,
                static_priority=prio[(p, a)],
                dynamic_priority=dynamic,
                bytes_per_item=per_item,
                record_clusters=record_clusters,
                resilient=resilient,
                angle=a,
            )
            programs.append(prog)
        return programs, record

    def _order_record(self, src_v, scatter, compute: bool) -> OrderRecord | None:
        if not compute:
            return None
        if src_v is None:
            if scatter is None:
                scatter = np.zeros((self.mesh.num_cells, self.num_groups))
            src_v = self._angle_source_v(scatter)
        return OrderRecord(self.quadrature.num_angles, src_v)

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
        """Instantiate CoarsenedSweepProgram per (patch, angle) from
        ``cgs``; returns ``(programs, record)`` as :meth:`build_programs`."""
        from .coarsened import CoarsenedSweepProgram

        record = self._order_record(src_v, scatter, compute)
        programs = []
        prio, per_item = self.static_priorities, 8 * self.num_groups
        for (p, a), cg in cgs.items():
            programs.append(
                CoarsenedSweepProgram(
                    cg,
                    cells_global=self.pset.patches[p].cells,
                    solve_fn=record and record.stamp,
                    static_priority=prio[(p, a)],
                    bytes_per_item=per_item,
                )
            )
        return programs, record

    def check_order(self, first: np.ndarray) -> None:
        """Refuse a solve order that is not a topological order of every
        angle's sweep DAG: ``first`` (an :attr:`OrderRecord.first`) must
        stamp every cell, and every edge ``u -> v`` must have
        ``first[u] < first[v]``.  One vectorized comparison per edge;
        the error names the angle, the edge and both stamps."""
        if first.min() < 0:
            a, c = np.argwhere(first < 0)[0].tolist()
            raise ReproError(f"sweep order: angle {a}: cell {c} was never solved")
        for angles, u, v in self._angle_edges():
            f = first[angles]
            late = f[:, u] >= f[:, v]
            if late.any():
                i, e = np.argwhere(late)[0].tolist()
                cu, cv = int(u[e]), int(v[e])
                raise ReproError(
                    f"sweep order: angle {angles[i]}: edge {cu} -> {cv} was solved "
                    f"out of order (first[{cu}] = {f[i, cu]} >= first[{cv}] = {f[i, cv]})"
                )

    def accumulate(self, record: OrderRecord) -> tuple[np.ndarray, np.ndarray]:
        """Scalar flux and leakage of a program run: :meth:`check_order`
        on ``record``, then one ``fast-level`` sweep of its source (the
        reflecting-boundary lag advances as after any sweep)."""
        self.check_order(record.first)
        return self._sweep_level(record.src_v)

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
