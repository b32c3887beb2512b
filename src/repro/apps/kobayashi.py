"""Kobayashi 3-D transport benchmark problems (system S17's workload).

The paper evaluates JSNT-S with "the well-known Kobayashi benchmark":
single-energy-group Sn transport with scattering on a cubic mesh.  The
OECD/NEA Kobayashi suite defines three shield/duct configurations; we
implement the canonical geometry family, scaled to a configurable mesh
resolution (the paper's Kobayashi-400 = 400 cells per axis; the DES
reproduction uses proportionally smaller meshes, see EXPERIMENTS.md):

* problem 1 - source box in a void region inside a shield,
* problem 2 - source box feeding a straight void duct through shield,
* problem 3 - source box feeding a dog-leg (bent) void duct.

Cross sections follow the benchmark: source region and shield
sigma_t = 0.1 /cm, duct void ~ 0; the scattering variant uses a 50%
scattering ratio in non-void regions.  Region shapes are the standard
published ones up to the domain truncation noted in each builder.
"""

from __future__ import annotations

import numpy as np

from .._util import ReproError, check_count
from ..framework.patch import PatchSet
from ..mesh.structured import StructuredMesh
from ..sweep.materials import Material, MaterialMap
from ..sweep.quadrature import Quadrature, level_symmetric
from ..sweep.solver import SnSolver

__all__ = [
    "KOBAYASHI_DOMAIN",
    "kobayashi_region",
    "kobayashi_mesh",
    "kobayashi_materials",
    "kobayashi_source",
    "make_kobayashi_solver",
]

#: Edge length of the (cubic) model domain in cm.
KOBAYASHI_DOMAIN = 60.0

MAT_SOURCE, MAT_VOID, MAT_SHIELD = 0, 1, 2


def kobayashi_region(centers: np.ndarray, problem: int = 3) -> np.ndarray:
    """Region id (source/void/shield) per point for the chosen problem.

    Coordinates are in cm in the ``[0, 60]^3`` model octant (the
    benchmark exploits symmetry; we model the positive octant).
    """
    x, y, z = centers[:, 0], centers[:, 1], centers[:, 2]
    src = (x <= 10) & (y <= 10) & (z <= 10)
    if problem == 1:
        void = (x <= 50) & (y <= 50) & (z <= 50) & ~src
    elif problem == 2:
        void = (x <= 10) & (z <= 10) & (y > 10) & ~src
    elif problem == 3:
        # Dog-leg duct: up in y, jog in z, up in y again.
        leg1 = (x <= 10) & (z <= 10) & (y > 10) & (y <= 30)
        leg2 = (x <= 10) & (y > 20) & (y <= 30) & (z > 10) & (z <= 40)
        leg3 = (x <= 10) & (y > 30) & (y <= 60) & (z > 30) & (z <= 40)
        void = (leg1 | leg2 | leg3) & ~src
    else:
        raise ReproError(f"unknown Kobayashi problem {problem}")
    out = np.full(len(centers), MAT_SHIELD, dtype=np.int64)
    out[void] = MAT_VOID
    out[src] = MAT_SOURCE
    return out


def kobayashi_mesh(n: int, problem: int = 3) -> StructuredMesh:
    """Cubic mesh with ``n`` cells per axis over the 60 cm domain."""
    check_count("n", n, "Kobayashi cells per axis")
    if n < 6:
        raise ReproError("need at least 6 cells per axis to resolve regions")
    h = KOBAYASHI_DOMAIN / n
    mesh = StructuredMesh(shape=(n, n, n), spacing=(h, h, h))
    mesh.assign_materials(lambda c: kobayashi_region(c, problem))
    return mesh


def kobayashi_materials(scattering: bool = True) -> dict[int, Material]:
    """Benchmark cross sections; 50% scattering ratio when enabled."""
    ratio = 0.5 if scattering else 0.0
    return {
        MAT_SOURCE: Material.isotropic(0.1, ratio, name="source"),
        MAT_VOID: Material.isotropic(1e-4, 0.0, name="void"),
        MAT_SHIELD: Material.isotropic(0.1, ratio, name="shield"),
    }


def kobayashi_source(mesh: StructuredMesh) -> np.ndarray:
    """Unit isotropic source in the source region, zero elsewhere."""
    q = np.zeros((mesh.num_cells, 1))
    q[mesh.material_flat() == MAT_SOURCE, 0] = 1.0
    return q


def make_kobayashi_solver(
    n: int,
    patch_shape: tuple[int, int, int] = (20, 20, 20),
    nprocs: int = 1,
    problem: int = 3,
    scattering: bool = True,
    quadrature: Quadrature | None = None,
    grain: int = 1000,
    strategy: str = "slbd+slbd",
    fixup: bool = True,
) -> SnSolver:
    """Assemble the JSNT-S-style Kobayashi solver.

    Defaults mirror the paper's JSNT-S configuration: 20^3 patches,
    clustering grain 1000, SLBD+SLBD priorities.  ``quadrature``
    defaults to S4; the paper's 320-direction set is
    ``product_quadrature(8, 40)``.
    """
    mesh = kobayashi_mesh(n, problem)
    patch_shape = tuple(min(p, n) for p in patch_shape)
    pset = PatchSet.from_structured(mesh, patch_shape, nprocs=nprocs)
    quad = quadrature if quadrature is not None else level_symmetric(4)
    mm = MaterialMap(kobayashi_materials(scattering), mesh.material_flat())
    return SnSolver(
        pset,
        quad,
        mm,
        kobayashi_source(mesh),
        scheme="dd",
        fixup=fixup,
        grain=grain,
        strategy=strategy,
    )
