"""Particle tracing: the paper's second data-driven component (S18).

The conclusions section notes that besides Sn sweeps, the patch-centric
abstraction hosts other data-driven algorithms, naming *particle trace*
as another component implemented in JAxMIN.  This module implements it:
particles advance along straight rays cell-to-cell; when a particle
crosses into a cell owned by another patch it is shipped there as a
stream, reactivating the target patch-program.

Unlike sweeps, the total workload is *not* known a priori (a particle's
path length depends on the geometry), so this component exercises the
general consensus-based termination path rather than the
workload-commit fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ReproError
from ..core.engine import SerialEngine
from ..core.patch_program import PatchProgram
from ..core.stream import ProgramId, Stream
from ..framework.patch import PatchSet
from ..mesh.unstructured import UnstructuredMesh

__all__ = ["Particle", "ParticleTraceProgram", "trace_particles"]

_EPS = 1e-10
_MAX_STEPS = 100_000


@dataclass
class Particle:
    """A ray being traced: position, unit direction, current cell."""

    id: int
    position: np.ndarray
    direction: np.ndarray
    cell: int
    path_length: float = 0.0
    crossings: int = 0
    alive: bool = True

    def copy(self) -> "Particle":
        return Particle(
            self.id,
            self.position.copy(),
            self.direction.copy(),
            self.cell,
            self.path_length,
            self.crossings,
            self.alive,
        )


def _exit_face(
    mesh: UnstructuredMesh, p: Particle
) -> tuple[int, float]:
    """Local face index the ray leaves ``p.cell`` through, and distance.

    Tolerances scale with the cell size so that particles nudged
    marginally past a face (vertex grazing) are still handled.
    """
    d = p.direction[: mesh.ndim]
    scale = float(mesh.cell_volumes[p.cell]) ** (1.0 / mesh.ndim)
    tmin = -1e-6 * scale
    best_lf, best_t = -1, np.inf
    fallback_lf, fallback_dn = -1, 0.0
    for lf in range(mesh.faces_per_cell):
        fid = mesh.cell_faces[p.cell, lf]
        n = mesh.face_normals[fid] * mesh.cell_face_signs[p.cell, lf]
        dn = float(n @ d)
        if dn <= _EPS:
            continue
        if dn > fallback_dn:
            fallback_lf, fallback_dn = lf, dn
        t = float(n @ (mesh.face_centroids[fid] - p.position)) / dn
        if t >= tmin and max(t, 0.0) < best_t:
            best_lf, best_t = lf, max(t, 0.0)
    if best_lf < 0:
        if fallback_lf >= 0:
            # The ray points out through a face we already grazed past:
            # cross it immediately.
            return fallback_lf, 0.0
        raise ReproError(
            f"particle {p.id} found no exit face from cell {p.cell}"
        )
    return best_lf, best_t


def _walk_locate(mesh: UnstructuredMesh, cell: int, x: np.ndarray) -> int:
    """Walk from ``cell`` to the cell containing ``x``; -1 if outside.

    Standard mesh-walk point location: repeatedly cross the face whose
    outward half-space the point violates the most.  Handles the
    vertex-grazing case where a ray's face crossing lands the particle
    diagonally in a non-face-adjacent cell.
    """
    for _ in range(200):
        worst_lf, worst = -1, 1e-12
        scale = float(mesh.cell_volumes[cell]) ** (1.0 / mesh.ndim)
        for lf in range(mesh.faces_per_cell):
            fid = mesh.cell_faces[cell, lf]
            n = mesh.face_normals[fid] * mesh.cell_face_signs[cell, lf]
            viol = float(n @ (x - mesh.face_centroids[fid]))
            if viol > worst * scale:
                worst_lf, worst = lf, viol / scale
        if worst_lf < 0:
            return cell  # inside (within tolerance) every half-space
        nxt = int(mesh.cell_neighbors[cell, worst_lf])
        if nxt < 0:
            return -1  # outside the domain
        cell = nxt
    raise ReproError("point location walk did not converge")


def advance_in_cells(
    mesh: UnstructuredMesh, p: Particle, cells_allowed: set[int]
) -> None:
    """Advance ``p`` until it leaves ``cells_allowed`` or the domain."""
    for _ in range(_MAX_STEPS):
        lf, t = _exit_face(mesh, p)
        scale = float(mesh.cell_volumes[p.cell]) ** (1.0 / mesh.ndim)
        p.position = p.position + (t + 1e-9 * scale) * p.direction[: mesh.ndim]
        p.path_length += t
        p.crossings += 1
        nxt = int(mesh.cell_neighbors[p.cell, lf])
        if nxt >= 0:
            # Vertex grazing can land the point outside the face
            # neighbour; relocate with a short walk.
            nxt = _walk_locate(mesh, nxt, p.position)
        if nxt < 0:
            p.alive = False  # left the domain
            return
        p.cell = nxt
        if nxt not in cells_allowed:
            return  # crossed a patch boundary; needs shipping
    raise ReproError(f"particle {p.id} exceeded {_MAX_STEPS} cell crossings")


class ParticleTraceProgram(PatchProgram):
    """Data-driven particle tracing on one patch."""

    TASK = "trace"

    def __init__(
        self,
        pset: PatchSet,
        patch: int,
        seeds: list[Particle] | None = None,
    ):
        super().__init__(patch, self.TASK)
        self.pset = pset
        self.mesh: UnstructuredMesh = pset.mesh
        self._cells = set(int(c) for c in pset.patches[patch].cells)
        self._pending: list[Particle] = list(seeds or [])
        self._out: list[Stream] = []
        self.finished: list[Particle] = []
        self._crossings = self._inputs = 0  # this execution's counters

    def input(self, stream: Stream) -> None:
        self._pending.extend(stream.payload)
        self._inputs += len(stream.payload)

    def compute(self) -> None:
        ship: dict[int, list[Particle]] = {}
        crossings = 0
        while self._pending:
            p = self._pending.pop()
            before = p.crossings
            advance_in_cells(self.mesh, p, self._cells)
            crossings += p.crossings - before
            if not p.alive:
                self.finished.append(p)
            else:
                dst = int(self.pset.cell_patch[p.cell])
                ship.setdefault(dst, []).append(p)
        for dst, parts in ship.items():
            self._out.append(
                Stream(
                    src=self.id,
                    dst=ProgramId(dst, self.TASK),
                    payload=parts,
                    items=len(parts),
                    nbytes=len(parts) * 64,  # pos + dir + bookkeeping
                )
            )
        self._crossings = crossings

    def output(self) -> Stream | None:
        if self._out:
            return self._out.pop(0)
        return None

    def vote_to_halt(self) -> bool:
        return not self._pending

    def remaining_workload(self) -> int | None:
        return None  # unknown a priori: exercises consensus termination

    def run_counters(self) -> tuple[int, int, int, int]:
        # Kernel work, edges and pops all ~ cell crossings.
        c = self._crossings
        out = (c, c, c, self._inputs)
        self._crossings = self._inputs = 0
        return out


def trace_particles(
    pset: PatchSet,
    positions: np.ndarray,
    directions: np.ndarray,
    engine: SerialEngine | None = None,
) -> list[Particle]:
    """Trace rays from ``positions`` along ``directions`` to the boundary.

    Returns the finished particles (exited the domain), each carrying
    its total path length and number of cell crossings.  Runs on the
    serial data-driven engine by default; the returned programs can
    equally be executed by the DES runtime.
    """
    mesh: UnstructuredMesh = pset.mesh
    positions = np.asarray(positions, dtype=float)
    directions = np.asarray(directions, dtype=float)
    if positions.shape != directions.shape:
        raise ReproError("positions/directions shape mismatch")
    norms = np.linalg.norm(directions[:, : mesh.ndim], axis=1)
    if np.any(norms <= 0):
        raise ReproError("zero direction")
    directions = directions / norms[:, None]

    # Locate starting cells (nearest centroid whose cell contains the
    # point is approximated by nearest centroid; fine for seeding).
    from scipy.spatial import cKDTree

    tree = cKDTree(mesh.cell_centroids)
    _, start_cells = tree.query(positions[:, : mesh.ndim])

    seeds: dict[int, list[Particle]] = {}
    for i, (pos, d, c) in enumerate(zip(positions, directions, start_cells)):
        patch = int(pset.cell_patch[int(c)])
        seeds.setdefault(patch, []).append(
            Particle(i, pos[: mesh.ndim].copy(), d.copy(), int(c))
        )
    programs = [
        ParticleTraceProgram(pset, p.id, seeds.get(p.id, []))
        for p in pset.patches
    ]
    eng = engine if engine is not None else SerialEngine()
    for prog in programs:
        eng.add_program(prog)
    eng.run()
    finished = [p for prog in programs for p in prog.finished]
    return sorted(finished, key=lambda p: p.id)
