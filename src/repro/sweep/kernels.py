"""Per-angle spatial transport kernels (system S13).

Two discretizations of the one-angle transport balance

    div(Omega * psi) + sigma_t * psi = s        (s = (q + sigma_s*phi)/4pi)

* ``step``   - donor-cell (step) upwind finite volume; works on any
  mesh family and is the JSNT-U-style unstructured kernel.
* ``dd``     - diamond difference with optional set-to-zero negative-flux
  fixup; the classic structured-mesh Sn kernel (TORT/JSNT-S style).
  Requires a face pairing (one inflow and one outflow face per axis),
  i.e. a regular structured mesh.

A kernel instance is specific to one direction and caches the per-cell
incoming/outgoing face tables; it is reused across source iterations
and energy groups.  Face fluxes live in one array with a slot per
interior interface plus a slot per boundary face.  :class:`SweepPlan`
compiles the tables of every angle's kernel into per-level slices of
one ``(angle, cell)`` vertex list, so the level-vectorized sweep
advances all angles at once and gathers nothing it could have
precomputed.  A plan's launch table holds the per-level slot and
coefficient views a level solve reads, so no call rebuilds them.
:meth:`AngleKernel.solve_cells` is the scalar ``fast`` oracle the plan
is checked against; the data-driven programs solve nothing in their
runs (they stamp the sweep order, see :mod:`repro.sweep.solver`).
"""

from __future__ import annotations

import numpy as np

from .._util import ReproError
from ..framework.connectivity import BoundaryTable, InterfaceTable
from ..mesh.structured import StructuredMesh
from .dag import csr_by_source, multi_slice

__all__ = ["AngleKernel", "SweepPlan"]

_TOL = 1e-12


class AngleKernel:
    """Upwind transport kernel for one ordinate direction."""

    def __init__(
        self,
        mesh,
        interfaces: InterfaceTable,
        boundary: BoundaryTable,
        direction: np.ndarray,
        scheme: str = "step",
        fixup: bool = True,
    ):
        if scheme not in ("step", "dd"):
            raise ReproError(f"unknown scheme {scheme!r}")
        if scheme == "dd" and not isinstance(mesh, StructuredMesh):
            raise ReproError("diamond difference requires a structured mesh")
        self.mesh = mesh
        self.scheme = scheme
        self.fixup = fixup
        self.direction = np.asarray(direction, dtype=np.float64)
        ncells = mesh.num_cells
        self.num_interfaces = interfaces.num_interfaces
        self.num_bfaces = boundary.num_faces
        self.num_slots = self.num_interfaces + self.num_bfaces

        # --- interior interfaces: upwind/downwind per direction ---
        # 2-D meshes: only the (x, y) ordinate components see geometry.
        dgeom = self.direction[: interfaces.normal.shape[1]]
        dot = interfaces.normal @ dgeom
        active = np.abs(dot) > _TOL
        idx = np.nonzero(active)[0]
        d = dot[idx]
        up = np.where(d > 0, interfaces.cell_a[idx], interfaces.cell_b[idx])
        down = np.where(d > 0, interfaces.cell_b[idx], interfaces.cell_a[idx])
        coeff = np.abs(d) * interfaces.area[idx]
        axis = np.argmax(np.abs(interfaces.normal[idx]), axis=1)

        # --- boundary faces ---
        bdot = boundary.normal @ dgeom
        b_idx = np.nonzero(np.abs(bdot) > _TOL)[0]
        b_cell = boundary.cell[b_idx]
        b_out = bdot[b_idx] > 0  # outward normal: positive dot = outflow
        b_coeff = np.abs(bdot[b_idx]) * boundary.area[b_idx]
        b_axis = np.argmax(np.abs(boundary.normal[b_idx]), axis=1)
        b_slot = self.num_interfaces + b_idx

        # Incoming boundary slots (set by boundary conditions).
        self.inflow_slots = b_slot[~b_out]
        self.inflow_rows = b_idx[~b_out]  # rows into the BoundaryTable
        self.inflow_axes = b_axis[~b_out]
        self.inflow_centroids = (
            boundary.centroid[b_idx[~b_out]]
            if boundary.centroid is not None
            else None
        )
        self.outflow_slots = b_slot[b_out]
        self.outflow_rows = b_idx[b_out]
        self.outflow_coeff = b_coeff[b_out]

        # --- per-cell CSR tables (the composite ``cell * 3 + axis`` keys
        # ride along only to pair the DD faces) ---
        in_cell = np.concatenate([down, b_cell[~b_out]])
        in_slot = np.concatenate([idx, b_slot[~b_out]])
        in_coeff = np.concatenate([coeff, b_coeff[~b_out]])
        in_key = in_cell * 3 + np.concatenate([axis, b_axis[~b_out]])
        self.in_indptr, self.in_slot, self.in_coeff, in_key = csr_by_source(
            in_cell, ncells, in_slot, in_coeff, in_key
        )

        out_cell = np.concatenate([up, b_cell[b_out]])
        out_slot = np.concatenate([idx, b_slot[b_out]])
        out_coeff = np.concatenate([coeff, b_coeff[b_out]])
        out_key = out_cell * 3 + np.concatenate([axis, b_axis[b_out]])
        self.out_indptr, self.out_slot, self.out_coeff, out_key = csr_by_source(
            out_cell, ncells, out_slot, out_coeff, out_key
        )

        self.out_pair = None
        self._offsets: tuple[list, list] | None = None  # solve_cells' int CSR offsets
        if scheme == "dd":
            self.out_pair = self._pair_faces(in_key, out_key)

        # Per-cell outgoing-coefficient sums (removal denominators),
        # used by both the scalar loop and the level-vectorized path.
        self.out_coeff_sum = np.zeros(ncells)
        np.add.at(
            self.out_coeff_sum,
            np.repeat(np.arange(ncells), np.diff(self.out_indptr)),
            self.out_coeff,
        )

    def _pair_faces(self, in_key: np.ndarray, out_key: np.ndarray) -> np.ndarray:
        """DD pairing: for every outflow face, the same-axis inflow slot
        of its cell, by one lookup on the composite ``cell * 3 + axis``
        keys (aligned with ``in_slot`` / ``out_slot``)."""
        slot_of = np.full(3 * self.mesh.num_cells, -1, dtype=np.int64)
        slot_of[in_key] = self.in_slot
        if np.count_nonzero(slot_of >= 0) != len(in_key):
            raise ReproError("DD: cell has two inflow faces on one axis")
        pair = slot_of[out_key]
        if np.any(pair < 0):
            raise ReproError("DD: outflow face without paired inflow")
        return pair

    # -- runtime API ----------------------------------------------------------------

    def new_face_array(self, groups: int) -> np.ndarray:
        """Fresh face-flux storage: (num_slots, groups)."""
        return np.zeros((self.num_slots, groups))

    def apply_boundary(self, psi_faces: np.ndarray, value=0.0) -> None:
        """Set the incoming boundary-face fluxes.

        ``value`` is a scalar (vacuum = 0), a per-inflow-face array
        ``(n_inflow,)``, or a per-face-per-group array
        ``(n_inflow, groups)``.
        """
        v = np.asarray(value, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        psi_faces[self.inflow_slots] = v

    def removal(self, sigma_t_v: np.ndarray) -> np.ndarray:
        """Per-cell removal denominators ``sigma_t_v + two *
        out_coeff_sum`` (``two`` is 2 for DD, 1 for step), shaped
        ``(ncells, groups)``; ``sigma_t_v`` is the cell-integrated
        ``sigma_t * V``, ``(ncells,)`` or ``(ncells, groups)``.  Constant
        over a sweep: form it once per angle, not per cluster."""
        if sigma_t_v.ndim == 1:
            sigma_t_v = sigma_t_v[:, None]
        two = 2.0 if self.scheme == "dd" else 1.0
        return sigma_t_v + two * self.out_coeff_sum[:, None]

    def solve_cells(
        self,
        cells,
        src_v: np.ndarray,
        den: np.ndarray,
        psi_faces: np.ndarray,
        psi_cell: np.ndarray,
    ) -> None:
        """Solve ``cells`` (ids, a list or an array) in the given
        (topological) order.

        ``src_v[c]`` must be the cell-integrated per-angle source
        ``s * V``, shaped ``(ncells, groups)``, and ``den`` this
        kernel's :meth:`removal`.  Updates ``psi_cell`` and the outgoing
        rows of ``psi_faces``; the loop keeps only what depends on the
        upwind flux, and reads its CSR offsets from int lists built at
        the kernel's first call (a list read by an int is a fraction of
        an array read by a numpy scalar).
        """
        if self._offsets is None:
            self._offsets = self.in_indptr.tolist(), self.out_indptr.tolist()
        in_ptr, out_ptr = self._offsets
        if isinstance(cells, np.ndarray):
            cells = cells.tolist()
        in_slot, in_coeff, out_slot = self.in_slot, self.in_coeff, self.out_slot
        take = psi_faces.take
        if self.scheme == "step":
            for c in cells:
                ilo, ihi = in_ptr[c], in_ptr[c + 1]
                psi = (src_v[c] + in_coeff[ilo:ihi] @ take(in_slot[ilo:ihi], axis=0)) / den[c]
                psi_cell[c] = psi
                psi_faces[out_slot[out_ptr[c] : out_ptr[c + 1]]] = psi
            return
        pair, fixup = self.out_pair, self.fixup
        for c in cells:
            ilo, ihi = in_ptr[c], in_ptr[c + 1]
            olo, ohi = out_ptr[c], out_ptr[c + 1]
            psi = (
                src_v[c] + 2.0 * (in_coeff[ilo:ihi] @ take(in_slot[ilo:ihi], axis=0))
            ) / den[c]
            psi_cell[c] = psi
            out_flux = 2.0 * psi - take(pair[olo:ohi], axis=0)
            if fixup:
                np.maximum(out_flux, 0.0, out=out_flux)
            psi_faces[out_slot[olo:ohi]] = out_flux

    def solve_level(
        self,
        plan: "SweepPlan",
        level: int,
        src_p: np.ndarray,
        den_p: np.ndarray,
        psi_faces: np.ndarray,
        psi_p: np.ndarray,
    ) -> None:
        """Vectorized solve of one dependency level of ``plan``: level
        ``level`` of every angle that is that deep (``self`` is the
        plan's first kernel; the per-level entry point lives here so it
        stays a traced kernel call).

        ``src_p`` / ``den_p`` / ``psi_p`` are ``(vertices, ng)`` in plan
        vertex order and ``psi_faces`` the ``(angles * slots, ng)`` view
        of every angle's face array (see :meth:`SweepPlan.sweep`).
        Identical arithmetic to :meth:`solve_cells`: each in-degree
        group's batched ``(1,k) @ (k,ng)`` matmul runs the same BLAS
        dot per vertex as ``in_coeff @ psi_faces[isl]``, so the sum
        order - and the result - is bitwise identical (verified by
        tests/test_kernels_level.py).  The level's slot and coefficient
        views come from the plan's :meth:`SweepPlan.launch_table`, so a
        call reshapes nothing.
        """
        index, coeffs = plan._launch or plan.launch_table()
        c0, c1, _, o0, o1 = plan.levels[level]
        slots, coeff = index[level], coeffs[level]
        take = psi_faces.take
        if not isinstance(slots, tuple):  # one in-degree group spans the level
            acc = np.matmul(coeff, take(slots, axis=0))[:, 0]
        else:
            acc = np.zeros((c1 - c0, psi_faces.shape[1]))
            for (a, b, group_slots), cf in zip(slots, coeff):
                acc[a:b] = np.matmul(cf, take(group_slots, axis=0))[:, 0]
        if self.scheme == "step":
            psi = (src_p[c0:c1] + acc) / den_p[c0:c1]
            psi_p[c0:c1] = psi
            psi_faces[plan.osl[o0:o1]] = psi.take(plan.oseg[o0:o1], axis=0)
            return
        psi = (src_p[c0:c1] + 2.0 * acc) / den_p[c0:c1]
        psi_p[c0:c1] = psi
        out_flux = psi.take(plan.oseg[o0:o1], axis=0)
        out_flux *= 2.0
        out_flux -= take(plan.pair[o0:o1], axis=0)
        if self.fixup:
            np.maximum(out_flux, 0.0, out=out_flux)
        psi_faces[plan.osl[o0:o1]] = out_flux

    def leakage(self, psi_faces: np.ndarray) -> np.ndarray:
        """Outgoing partial current through the domain boundary (per group)."""
        if len(self.outflow_slots) == 0:
            return np.zeros(psi_faces.shape[1])
        return self.outflow_coeff @ psi_faces[self.outflow_slots]


class SweepPlan:
    """Level tables of the *whole quadrature*, compiled once and reused
    by every sweep (meshtaichi ``Patcher`` layout: flat value arrays
    plus one offset table, no per-level arrays).

    The sweeps of the angles are independent DAGs, so level ``l`` of the
    plan holds level ``l`` of every angle that is that deep and a sweep
    costs ``max over angles of levels`` kernel calls.  ``kernels[a]``
    and ``levels[a]`` (:func:`repro.sweep.dag.topological_levels`; the
    angles of a set share one result) describe angle ``a``; vertex
    ``(a, cell)`` reads and writes face slots ``a * num_slots + slot``.
    The ``int32`` index tables are:

    * ``vertex`` / ``cell`` - ``a * ncells + cell`` and ``cell`` of the
      vertices, level-major and, inside a level, by in-degree, so every
      in-degree group of a level is a slice;
    * ``slots`` - the inflow slots of the vertices, concatenated;
    * ``osl`` / ``oseg`` / ``pair`` - per outflow face of the vertices
      its slot, its vertex's position inside the level and (DD) the
      paired inflow slot;

    beside the ``float64`` ``coeff`` (aligned with ``slots``) and
    ``den2`` (``2 * out_coeff_sum``, ``1 *`` for step, aligned with
    ``vertex``).  ``levels[l]`` is ``(c0, c1, ((a, b, k, s0, s1), ...),
    o0, o1)``: the level's range of ``vertex``, per in-degree ``k > 0``
    the level-relative vertex range and its range of ``slots``, and the
    level's range of ``osl``.
    """

    def __init__(self, kernels: list, levels: list):
        self.kernels = kernels
        k0 = kernels[0]
        dd = k0.scheme == "dd"
        ncells, nslots = k0.mesh.num_cells, k0.num_slots
        # Vertex a * ncells + c, angle by angle: its level and degrees.
        level_of = np.empty((len(kernels), ncells), dtype=np.int64)
        for row, lv in zip(level_of, levels):
            for level, cells in enumerate(lv):
                row[cells] = level
        level_of = level_of.ravel()
        indeg = np.concatenate([np.diff(k.in_indptr) for k in kernels])
        outdeg = np.concatenate([np.diff(k.out_indptr) for k in kernels])
        order = np.argsort(level_of * (indeg.max() + 1) + indeg, kind="stable")
        level_of, indeg, outdeg = level_of[order], indeg[order], outdeg[order]
        per_level = np.bincount(level_of, minlength=max(map(len, levels)))
        cstart = np.concatenate(([0], np.cumsum(per_level)))
        in_level = np.arange(len(order)) - cstart[level_of]
        ioff = np.concatenate(([0], np.cumsum(indeg)))
        ooff = np.concatenate(([0], np.cumsum(outdeg)))
        self.vertex = order.astype(np.int32)
        self.cell = (order % ncells).astype(np.int32)
        self.oseg = np.repeat(in_level.astype(np.int32), outdeg)
        self.den2 = (2.0 if dd else 1.0) * np.concatenate(
            [k.out_coeff_sum for k in kernels]
        )[order]
        # A kernel's CSR rows are in cell order: scatter them, one angle
        # at a time, to where the plan put that angle's vertices.
        self.slots = np.empty(ioff[-1], dtype=np.int32)
        self.coeff = np.empty(ioff[-1])
        self.osl = np.empty(ooff[-1], dtype=np.int32)
        self.pair = np.empty(ooff[-1], dtype=np.int32) if dd else None
        pos = np.empty(len(order), dtype=np.int64)
        pos[order] = np.arange(len(order))
        for a, k in enumerate(kernels):
            at = pos[a * ncells : (a + 1) * ncells]
            rows = multi_slice(ioff[at], indeg[at])
            self.slots[rows] = k.in_slot + a * nslots
            self.coeff[rows] = k.in_coeff
            rows = multi_slice(ooff[at], outdeg[at])
            self.osl[rows] = k.out_slot + a * nslots
            if dd:
                self.pair[rows] = k.out_pair + a * nslots

        ooff = ooff[cstart].tolist()
        cstart = cstart.tolist()
        self.levels = [
            (c0, c1, [], o0, o1)
            for c0, c1, o0, o1 in zip(cstart, cstart[1:], ooff, ooff[1:])
        ]
        # An in-degree group starts where the level or the in-degree changes.
        start = np.nonzero(
            np.diff(level_of, prepend=-1) | np.diff(indeg, prepend=-1)
        )[0]
        end = np.append(start[1:], len(order))
        for lv, a, b, k, s0, s1 in zip(
            level_of[start].tolist(), in_level[start].tolist(),
            (in_level[end - 1] + 1).tolist(), indeg[start].tolist(),
            ioff[start].tolist(), ioff[end].tolist(),
        ):
            if k:
                self.levels[lv][2].append((a, b, k, s0, s1))
        self.levels = [(c0, c1, tuple(g), o0, o1) for c0, c1, g, o0, o1 in self.levels]
        self._launch: tuple[list, list] | None = None

    def launch_table(self) -> tuple[list, list]:
        """``(index, coeffs)``, per level the views
        :meth:`AngleKernel.solve_level` reads, built at the plan's first
        call and then reused.

        When one in-degree group spans level ``l`` - the one-group form,
        every level on a structured mesh - ``index[l]`` is the ``(n, k)``
        inflow-slot view of its vertices and ``coeffs[l]`` their ``(n,
        1, k)`` coefficient view; otherwise ``index[l]`` is a tuple of
        ``(a, b, slots)`` per group and ``coeffs[l]`` one coefficient
        view per group.  The level's ranges come from ``levels``, and
        ``osl`` / ``oseg`` / ``pair`` are sliced per call: views of them
        would cost more resident memory than their slicing costs time.
        """
        if self._launch is None:
            index, coeffs = [], []
            for c0, c1, groups, _, _ in self.levels:
                rows = tuple((a, b, self.slots[s0:s1].reshape(b - a, k))
                             for a, b, k, s0, s1 in groups)
                views = tuple(self.coeff[s0:s1].reshape(b - a, 1, k)
                              for a, b, k, s0, s1 in groups)
                if len(rows) == 1 and rows[0][:2] == (0, c1 - c0):
                    rows, views = rows[0][2], views[0]
                index.append(rows)
                coeffs.append(views)
            self._launch = index, coeffs
        return self._launch

    def sweep(
        self,
        src_v: np.ndarray,
        sigma_t_v: np.ndarray,
        psi_faces: np.ndarray,
        psi_cell: np.ndarray,
    ) -> None:
        """Solve every level for every angle: the C-contiguous
        ``psi_faces`` ``(angles, slots, ng)`` holds the boundary
        conditions and receives the face fluxes, ``psi_cell``
        ``(angles, ncells, ng)`` the cell fluxes.  ``sigma_t_v`` is
        ``(ncells,)`` or ``(ncells, ng)``.
        """
        if sigma_t_v.ndim == 1:
            sigma_t_v = sigma_t_v[:, None]
        ng = src_v.shape[1]
        src_p = src_v[self.cell]
        den_p = sigma_t_v[self.cell] + self.den2[:, None]
        psi_p = np.empty((len(self.cell), ng))
        flat_faces = psi_faces.reshape(-1, ng)
        solve_level = self.kernels[0].solve_level
        for level in range(len(self.levels)):
            solve_level(self, level, src_p, den_p, flat_faces, psi_p)
        psi_cell.reshape(-1, ng)[self.vertex] = psi_p
