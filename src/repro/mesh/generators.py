"""Mesh generators for the meshes used in the JSweep evaluation.

The paper evaluates on three mesh shapes (Fig. 11): a structured cube
(Kobayashi benchmark), an unstructured reactor core and an unstructured
ball of tetrahedra.  This module generates analogous meshes at
configurable resolution:

* :func:`cube_structured` - the structured cube.
* :func:`ball_tet_mesh` - tetrahedral ball via Delaunay triangulation.
* :func:`reactor_mesh_2d` - 2-D reactor core with fuel / control /
  reflector / vessel material rings.
* :func:`cube_tet_mesh` - conforming Kuhn tetrahedralization of a box
  (useful for verification: same domain as the structured cube).
* :func:`warped_quad_mesh` - a *deforming structured* mesh (logically
  structured quads with smoothly warped geometry), the case the paper
  highlights where KBA breaks down but the data-driven approach works.
* :func:`disk_tri_mesh` - 2-D triangulated disk.

The Delaunay generators import ``scipy.spatial`` where they call it,
so a process that builds only structured meshes loads no scipy.
"""

from __future__ import annotations

import itertools

import numpy as np

from .._util import ReproError, check_count
from .structured import StructuredMesh
from .unstructured import UnstructuredMesh

__all__ = [
    "cube_structured",
    "box_structured",
    "box_hex_mesh",
    "cube_tet_mesh",
    "ball_tet_mesh",
    "disk_tri_mesh",
    "reactor_mesh_2d",
    "warped_quad_mesh",
    "fibonacci_sphere",
]


# -- structured ---------------------------------------------------------------


def cube_structured(n: int, length: float = 1.0) -> StructuredMesh:
    """Cubic structured mesh with ``n`` cells per axis."""
    return box_structured((n, n, n), (length, length, length))


def box_structured(
    shape: tuple[int, ...], lengths: tuple[float, ...]
) -> StructuredMesh:
    """Structured box mesh with given cell counts and physical lengths."""
    if len(shape) != len(lengths):
        raise ReproError("shape/lengths rank mismatch")
    spacing = tuple(L / n for L, n in zip(lengths, shape))
    return StructuredMesh(shape=tuple(shape), spacing=spacing)


# -- tetrahedral --------------------------------------------------------------

# Kuhn triangulation: 6 tets per cube, conforming across neighbours
# because every cube is split identically (all tets share the main
# diagonal (0,0,0)-(1,1,1)).
_KUHN_PATHS = list(itertools.permutations(range(3)))


def cube_tet_mesh(
    shape: tuple[int, int, int], lengths: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> UnstructuredMesh:
    """Conforming tetrahedral mesh of a box (6 Kuhn tets per cube)."""
    nx, ny, nz = shape
    hx, hy, hz = (L / n for L, n in zip(lengths, shape))
    xs = np.arange(nx + 1) * hx
    ys = np.arange(ny + 1) * hy
    zs = np.arange(nz + 1) * hz
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    def nid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    ii, jj, kk = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    base = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)  # (nc, 3)
    cells = []
    for path in _KUHN_PATHS:
        # Walk from corner (0,0,0) to (1,1,1) adding one axis at a time.
        steps = [np.zeros(3, dtype=np.int64)]
        cur = np.zeros(3, dtype=np.int64)
        for ax in path:
            cur = cur.copy()
            cur[ax] = 1
            steps.append(cur)
        corners = []
        for s in steps:
            idx = base + s
            corners.append(
                (idx[:, 0] * (ny + 1) + idx[:, 1]) * (nz + 1) + idx[:, 2]
            )
        cells.append(np.stack(corners, axis=1))
    cells = np.concatenate(cells, axis=0)
    return UnstructuredMesh(points=points, cells=cells, cell_type="tet")


def box_hex_mesh(
    shape: tuple[int, int, int],
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> UnstructuredMesh:
    """Regular box as an *unstructured* hexahedral mesh.

    Geometrically identical to :func:`box_structured`; used to verify
    that the unstructured machinery reproduces the structured path
    exactly (same cells in the same C order, same faces), and as the
    starting point for distorted-hex experiments.
    """
    nx, ny, nz = shape
    xs = np.arange(nx + 1) * (lengths[0] / nx)
    ys = np.arange(ny + 1) * (lengths[1] / ny)
    zs = np.arange(nz + 1) * (lengths[2] / nz)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    ii, jj, kk = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    i0, j0, k0 = ii.ravel(), jj.ravel(), kk.ravel()

    def nid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    # VTK hexahedron corner order (matching CELL_TYPES["hex"]).
    cells = np.stack(
        [
            nid(i0, j0, k0),
            nid(i0 + 1, j0, k0),
            nid(i0 + 1, j0 + 1, k0),
            nid(i0, j0 + 1, k0),
            nid(i0, j0, k0 + 1),
            nid(i0 + 1, j0, k0 + 1),
            nid(i0 + 1, j0 + 1, k0 + 1),
            nid(i0, j0 + 1, k0 + 1),
        ],
        axis=1,
    )
    return UnstructuredMesh(points=points, cells=cells, cell_type="hex")


def fibonacci_sphere(n: int, radius: float = 1.0) -> np.ndarray:
    """Quasi-uniform points on a sphere (golden-spiral lattice)."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5**0.5) * i
    return radius * np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=1,
    )


def ball_tet_mesh(
    resolution: int, radius: float = 1.0, seed: int = 0
) -> UnstructuredMesh:
    """Tetrahedral ball mesh (the Fig. 11c shape).

    ``resolution`` is the number of grid intervals across the diameter;
    cell count grows roughly like ``3 * resolution**3``.  Interior
    points come from a jittered grid, surface points from a golden
    spiral, and the triangulation is a scipy Delaunay with a sliver
    filter.
    """
    check_count("resolution", resolution, "ball mesh resolution")
    if resolution < 2:
        raise ReproError("resolution must be >= 2")
    h = 2.0 * radius / resolution
    ax = np.arange(-radius + h / 2, radius, h)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    rng = np.random.default_rng(seed)
    pts = pts + rng.uniform(-0.12 * h, 0.12 * h, size=pts.shape)
    keep = np.linalg.norm(pts, axis=1) < radius - 0.35 * h
    interior = pts[keep]
    n_surface = max(32, int(3.3 * resolution**2))
    surface = fibonacci_sphere(n_surface, radius)
    points = np.concatenate([interior, surface], axis=0)

    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    cells = tri.simplices.astype(np.int64)
    p = [points[cells[:, i]] for i in range(4)]
    vol = np.abs(
        np.einsum("ij,ij->i", p[1] - p[0], np.cross(p[2] - p[0], p[3] - p[0]))
        / 6.0
    )
    # Drop slivers: tets much flatter than a regular tet at this spacing.
    cells = cells[vol > 1e-3 * h**3]
    return UnstructuredMesh(points=points, cells=cells, cell_type="tet")


# -- 2-D triangulations --------------------------------------------------------


def _ring_points(radius: float, spacing: float) -> np.ndarray:
    n = max(6, int(round(2 * np.pi * radius / spacing)))
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return radius * np.stack([np.cos(th), np.sin(th)], axis=1)


def disk_tri_mesh(resolution: int, radius: float = 1.0) -> UnstructuredMesh:
    """Triangulated disk; ``resolution`` rings of cells."""
    check_count("resolution", resolution, "disk mesh resolution")
    if resolution < 2:
        raise ReproError("resolution must be >= 2")
    spacing = radius / resolution
    pts = [np.zeros((1, 2))]
    for i in range(1, resolution + 1):
        pts.append(_ring_points(i * spacing, spacing))
    points = np.concatenate(pts, axis=0)

    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    return UnstructuredMesh(
        points=points, cells=tri.simplices.astype(np.int64), cell_type="tri"
    )


def reactor_mesh_2d(
    resolution: int,
    core_radius: float = 1.0,
    reflector_radius: float = 1.4,
    vessel_radius: float = 1.6,
    n_assemblies: int = 12,
) -> UnstructuredMesh:
    """2-D reactor-core mesh (Fig. 11b analogue).

    Concentric regions: a core of fuel assemblies (material 1) with
    interleaved control positions (material 2), a reflector annulus
    (material 3) and a vessel annulus (material 4).  The paper's
    reactor mesh is 3-D; a 2-D core preserves the properties sweeps
    care about - irregular connectivity and heterogeneous materials -
    at tractable size (see DESIGN.md substitution log).
    """
    check_count("resolution", resolution, "reactor mesh resolution")
    if resolution < 4:
        raise ReproError("resolution must be >= 4")
    spacing = vessel_radius / resolution
    pts = [np.zeros((1, 2))]
    r = spacing
    radii = []
    while r < vessel_radius + 0.5 * spacing:
        radii.append(min(r, vessel_radius))
        r += spacing
    # Snap rings near the material interfaces onto them so the material
    # boundaries are resolved by the triangulation.
    for iface in (core_radius, reflector_radius, vessel_radius):
        k = int(np.argmin([abs(rr - iface) for rr in radii]))
        radii[k] = iface
    for rr in sorted(set(radii)):
        pts.append(_ring_points(rr, spacing))
    points = np.concatenate(pts, axis=0)

    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    cells = tri.simplices.astype(np.int64)
    mesh = UnstructuredMesh(points=points, cells=cells, cell_type="tri")

    c = mesh.cell_centroids
    rad = np.linalg.norm(c, axis=1)
    ang = np.arctan2(c[:, 1], c[:, 0])
    mat = np.full(mesh.num_cells, 4, dtype=np.int64)  # vessel
    mat[rad <= reflector_radius] = 3  # reflector
    core = rad <= core_radius
    sector = np.floor((ang + np.pi) / (2 * np.pi) * n_assemblies).astype(np.int64)
    mat[core] = np.where(sector[core] % 3 == 0, 2, 1)  # control vs fuel
    mesh.materials = mat
    return mesh


# -- deforming structured -------------------------------------------------------


def warped_quad_mesh(
    shape: tuple[int, int],
    lengths: tuple[float, float] = (1.0, 1.0),
    amplitude: float = 0.15,
) -> UnstructuredMesh:
    """Deforming-structured mesh: logically regular quads, warped geometry.

    This is the mesh class for which the paper argues KBA is 'almost
    impossible': the data dependencies of a sweep are no longer the
    regular lattice pattern, so the DAG approach is required.  Interior
    nodes are displaced by a smooth sinusoidal field; boundary nodes
    stay put so the domain remains the exact rectangle.
    """
    nx, ny = shape
    Lx, Ly = lengths
    xs = np.linspace(0, Lx, nx + 1)
    ys = np.linspace(0, Ly, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    wx = amplitude * (Lx / nx) * np.sin(2 * np.pi * gy / Ly) * np.sin(
        np.pi * gx / Lx
    ) * 2.0
    wy = amplitude * (Ly / ny) * np.sin(2 * np.pi * gx / Lx) * np.sin(
        np.pi * gy / Ly
    ) * 2.0
    px = gx + wx
    py = gy + wy
    points = np.stack([px.ravel(), py.ravel()], axis=1)

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    i0 = (ii * (ny + 1) + jj).ravel()
    cells = np.stack(
        [i0, i0 + (ny + 1), i0 + (ny + 1) + 1, i0 + 1], axis=1
    )  # CCW quads
    return UnstructuredMesh(points=points, cells=cells, cell_type="quad")
