"""JSNT-S / JSNT-U application analogues (system S17).

The paper's two evaluation vehicles are JSNT-S (JASMIN-based Sn package
for structured meshes, Kobayashi workloads) and JSNT-U (JAUMIN-based Sn
package for unstructured meshes, ball and reactor workloads).  These
classes wire the mesh generators, decomposition, quadrature and solver
together with the paper's default configurations, and expose the two
study types the evaluation section runs:

* ``solve(...)``       - converge the physics (source iteration),
* ``sweep_report(...)``- one sweep under the DES runtime at any
  simulated core count and mode, returning the performance report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check_count
from ..framework.patch import PatchSet
from ..mesh.generators import ball_tet_mesh, reactor_mesh_2d
from ..runtime.cluster import Machine, TIANHE2
from ..runtime.costmodel import CostModel
from ..runtime.engine_des import DataDrivenRuntime
from ..runtime.metrics import RunReport
from ..sweep.materials import Material, MaterialMap
from ..sweep.quadrature import Quadrature, level_symmetric
from ..sweep.solver import SnSolver, SweepResult
from .kobayashi import make_kobayashi_solver

__all__ = ["JSNTApp", "JSNTS", "JSNTU"]


@dataclass
class JSNTApp:
    """A configured Sn application: solver + machine model."""

    solver: SnSolver
    machine: Machine = TIANHE2
    name: str = "jsnt"

    @property
    def pset(self) -> PatchSet:
        return self.solver.pset

    def solve(self, tol: float = 1e-6, max_iterations: int = 200) -> SweepResult:
        """Converge the scalar flux with source iteration (fast mode)."""
        return self.solver.source_iteration(tol=tol, max_iterations=max_iterations)

    def sweep_report(
        self,
        total_cores: int,
        mode: str = "hybrid",
        cost: CostModel | None = None,
        coarsened: bool = False,
        grain: int | None = None,
        termination: str = "workload",
        trace: bool = False,
        persist=None,
    ) -> RunReport:
        """One full sweep under the DES runtime at ``total_cores``.

        Patches go to the processes of the ``mode`` layout by
        :meth:`PatchSet.assign`.  With ``coarsened`` the sweep
        first records clusters, builds CG, and times the CG sweep -
        the steady-state regime the paper reports.  With ``trace`` the
        report carries a structured event trace (see
        ``RunReport.to_chrome_trace``).  ``persist`` is an optional
        snapshot manager (see :mod:`repro.persist`) snapshotting the
        runtime on its event cadence.
        """
        patch_proc = self.pset.assign(self.machine.layout(total_cores, mode).nprocs)
        if coarsened:
            cgs = self.solver.record_coarsened(grain=grain)
            programs, _ = self.solver.build_coarsened_programs(cgs, compute=False)
        else:
            programs, _ = self.solver.build_programs(compute=False, grain=grain)
        rt = DataDrivenRuntime(
            total_cores,
            machine=self.machine,
            cost=cost,
            mode=mode,
            termination=termination,
            trace=trace,
        )
        return rt.run(programs, patch_proc, persist=persist)


class JSNTS:
    """JSNT-S analogue: structured-mesh Sn package (Kobayashi workloads)."""

    @staticmethod
    def kobayashi(
        n: int,
        total_cores: int = 12,
        machine: Machine = TIANHE2,
        patch_shape: tuple[int, int, int] = (20, 20, 20),
        quadrature: Quadrature | None = None,
        grain: int = 1000,
        strategy: str = "slbd+slbd",
        problem: int = 3,
        scattering: bool = True,
    ) -> JSNTApp:
        nprocs = machine.layout(total_cores).nprocs
        solver = make_kobayashi_solver(
            n,
            patch_shape=patch_shape,
            nprocs=nprocs,
            problem=problem,
            scattering=scattering,
            quadrature=quadrature,
            grain=grain,
            strategy=strategy,
        )
        return JSNTApp(solver=solver, machine=machine, name=f"jsnt-s-koba{n}")


class JSNTU:
    """JSNT-U analogue: unstructured-mesh Sn package (ball / reactor)."""

    #: Paper defaults: patch size 500 cells, grain 64, S4, 4 groups.
    DEFAULTS = dict(patch_size=500, grain=64, groups=4)

    @staticmethod
    def _materials(mesh, groups: int) -> MaterialMap:
        ids = sorted(set(np.unique(mesh.materials).tolist()))
        mats = {}
        for mid in ids:
            # Heterogeneous but simple: heavier absorption in even ids.
            sig = 0.5 + 0.25 * (mid % 3)
            mats[mid] = Material.isotropic(
                sig, scatter_ratio=0.3, groups=groups, name=f"mat{mid}"
            )
        return MaterialMap(mats, mesh.materials)

    @classmethod
    def _build(
        cls,
        mesh,
        total_cores: int,
        machine: Machine,
        patch_size: int,
        grain: int,
        groups: int,
        quadrature: Quadrature | None,
        strategy: str,
        name: str,
    ) -> JSNTApp:
        check_count("groups", groups, "energy group count")
        nprocs = machine.layout(total_cores).nprocs
        pset = PatchSet.from_unstructured(mesh, patch_size, nprocs=nprocs)
        quad = quadrature if quadrature is not None else level_symmetric(4)
        mm = cls._materials(mesh, groups)
        q = np.zeros((mesh.num_cells, groups))
        # Source in the innermost material region (fuel / center).
        inner = mesh.materials == mesh.materials.min()
        q[inner, 0] = 1.0
        solver = SnSolver(
            pset, quad, mm, q, scheme="step", grain=grain, strategy=strategy
        )
        return JSNTApp(solver=solver, machine=machine, name=name)

    @classmethod
    def ball(
        cls,
        resolution: int,
        total_cores: int = 12,
        machine: Machine = TIANHE2,
        patch_size: int = 500,
        grain: int = 64,
        groups: int = 4,
        quadrature: Quadrature | None = None,
        strategy: str = "slbd+slbd",
        seed: int = 0,
    ) -> JSNTApp:
        mesh = ball_tet_mesh(resolution, seed=seed)
        return cls._build(
            mesh, total_cores, machine, patch_size, grain, groups,
            quadrature, strategy, f"jsnt-u-ball{resolution}",
        )

    @classmethod
    def reactor(
        cls,
        resolution: int,
        total_cores: int = 12,
        machine: Machine = TIANHE2,
        patch_size: int = 500,
        grain: int = 64,
        groups: int = 4,
        quadrature: Quadrature | None = None,
        strategy: str = "slbd+slbd",
    ) -> JSNTApp:
        mesh = reactor_mesh_2d(resolution)
        return cls._build(
            mesh, total_cores, machine, patch_size, grain, groups,
            quadrature, strategy, f"jsnt-u-reactor{resolution}",
        )
