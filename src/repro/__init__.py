"""repro: a reproduction of *JSweep - a patch-centric data-driven
approach for parallel sweeps on large-scale meshes* (Yan et al.).

The package implements the paper's full stack in Python:

* :mod:`repro.mesh`      - structured & unstructured meshes + generators
* :mod:`repro.partition` - SFC (structured) and RCB (unstructured)
  decomposition
* :mod:`repro.framework` - patches, patch sets and face tables (JAxMIN)
* :mod:`repro.core`      - the patch-centric data-driven abstraction
* :mod:`repro.runtime`   - DES-simulated MPI+threads cluster runtime
* :mod:`repro.sweep`     - Sn sweeps: quadrature, DAGs, kernels,
  priorities, vertex clustering, coarsened graphs, KBA/BSP baselines
* :mod:`repro.apps`      - JSNT-S / JSNT-U applications, Kobayashi
  benchmark, particle tracing

Quickstart::

    from repro import JSNTS
    app = JSNTS.kobayashi(20, total_cores=24, patch_shape=(5, 5, 5))
    result = app.solve(tol=1e-6)          # physics (source iteration)
    for cores in (24, 48, 96):            # one app, every core count
        report = app.sweep_report(cores)  # simulated parallel sweep
        print(cores, report.makespan)
    print(app.sweep_report(48, mode="mpi_only").format_breakdown())
"""

from .apps import JSNTS, JSNTU, JSNTApp, make_kobayashi_solver, trace_particles
from .core import (
    PatchProgram,
    ProgramId,
    ProgramState,
    SerialEngine,
    Stream,
    WorkloadTracker,
)
from .framework import PatchSet
from .mesh import (
    Box,
    StructuredMesh,
    UnstructuredMesh,
    ball_tet_mesh,
    cube_structured,
    cube_tet_mesh,
    disk_tri_mesh,
    reactor_mesh_2d,
    warped_quad_mesh,
)
from .runtime import (
    TIANHE2,
    CostModel,
    CrashFault,
    DataDrivenRuntime,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    Machine,
    RecoveryConfig,
    RunReport,
    StallError,
    StallReport,
    StragglerWindow,
)
from .sweep import (
    Material,
    MaterialMap,
    PriorityStrategy,
    Quadrature,
    SnSolver,
    SweepPatchProgram,
    SweepResult,
    SweepTopology,
    level_symmetric,
    product_quadrature,
)
from .sweep.baselines import BSPSweepRuntime, KBASchedule
from .sweep.coarsened import (
    CoarsenedSweepProgram,
    build_coarsened,
    coarsened_is_acyclic,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PatchProgram",
    "ProgramId",
    "ProgramState",
    "Stream",
    "SerialEngine",
    "WorkloadTracker",
    "Box",
    "StructuredMesh",
    "UnstructuredMesh",
    "cube_structured",
    "cube_tet_mesh",
    "ball_tet_mesh",
    "disk_tri_mesh",
    "reactor_mesh_2d",
    "warped_quad_mesh",
    "PatchSet",
    "Machine",
    "TIANHE2",
    "CostModel",
    "DataDrivenRuntime",
    "RunReport",
    "CrashFault",
    "StragglerWindow",
    "LinkPartition",
    "FaultPlan",
    "FaultInjector",
    "RecoveryConfig",
    "StallReport",
    "StallError",
    "Quadrature",
    "level_symmetric",
    "product_quadrature",
    "SweepTopology",
    "SnSolver",
    "SweepResult",
    "SweepPatchProgram",
    "Material",
    "MaterialMap",
    "PriorityStrategy",
    "KBASchedule",
    "BSPSweepRuntime",
    "build_coarsened",
    "coarsened_is_acyclic",
    "CoarsenedSweepProgram",
    "JSNTApp",
    "JSNTS",
    "JSNTU",
    "make_kobayashi_solver",
    "trace_particles",
]
