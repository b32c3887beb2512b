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
compiles the tables of the kernels that share them (an *angle set*)
into per-level slices, so the level-vectorized sweep gathers nothing
it could have precomputed.
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

    def solve_cells(
        self,
        cells: np.ndarray,
        src_v: np.ndarray,
        sigma_t_v: np.ndarray,
        psi_faces: np.ndarray,
        psi_cell: np.ndarray,
    ) -> None:
        """Solve ``cells`` in the given (topological) order.

        ``src_v[c]`` must be the cell-integrated per-angle source
        ``s * V``, shaped ``(ncells, groups)``, and ``sigma_t_v[c]`` the
        cell-integrated removal ``sigma_t * V``, shaped ``(ncells,)``
        (one value per cell for all groups) or ``(ncells, groups)``.
        Updates ``psi_cell`` and the outgoing rows of ``psi_faces``.
        """
        dd = self.scheme == "dd"
        two = 2.0 if dd else 1.0
        in_indptr, in_slot, in_coeff = self.in_indptr, self.in_slot, self.in_coeff
        out_indptr, out_slot, out_coeff = (
            self.out_indptr,
            self.out_slot,
            self.out_coeff,
        )
        pair = self.out_pair
        for c in cells:
            ilo, ihi = in_indptr[c], in_indptr[c + 1]
            olo, ohi = out_indptr[c], out_indptr[c + 1]
            isl = in_slot[ilo:ihi]
            num = src_v[c] + two * (in_coeff[ilo:ihi] @ psi_faces[isl])
            den = sigma_t_v[c] + two * out_coeff[olo:ohi].sum()
            psi = num / den
            psi_cell[c] = psi
            osl = out_slot[olo:ohi]
            if dd:
                out_flux = 2.0 * psi - psi_faces[pair[olo:ohi]]
                if self.fixup:
                    np.maximum(out_flux, 0.0, out=out_flux)
                psi_faces[osl] = out_flux
            else:
                psi_faces[osl] = psi

    def solve_level(
        self,
        plan: "SweepPlan",
        level: int,
        src_p: np.ndarray,
        den_p: np.ndarray,
        psi_faces: np.ndarray,
        psi_p: np.ndarray,
    ) -> None:
        """Vectorized solve of one dependency level of ``plan`` for all
        ``m`` angles of its set (``self`` is the set's first kernel; the
        per-level entry point lives here so it stays a traced kernel call).

        ``src_p`` ``(ncells, ng)`` and ``den_p`` / ``psi_p``
        ``(m, ncells, ng)`` are in plan cell order (see
        :meth:`SweepPlan.sweep`); ``psi_faces`` is ``(m, slots, ng)``.
        Identical arithmetic to :meth:`solve_cells`: each in-degree
        group's batched ``(1,k) @ (k,ng)`` matmul runs the same BLAS
        dot per cell as ``in_coeff @ psi_faces[isl]``, so the sum order
        - and the result - is bitwise identical (verified by
        tests/test_kernels_level.py).
        """
        c0, c1, groups, o0, o1 = plan.levels[level]
        m, _, ng = psi_faces.shape
        two = 2.0 if self.scheme == "dd" else 1.0
        acc = np.zeros((m, c1 - c0, ng))
        for a, b, k, s0, s1 in groups:
            flux = psi_faces.take(plan.slots[s0:s1], axis=1)
            acc[:, a:b] = np.matmul(
                plan.coeff[:, s0:s1].reshape(m, b - a, 1, k),
                flux.reshape(m, b - a, k, ng),
            )[:, :, 0]
        psi = (src_p[c0:c1] + two * acc) / den_p[:, c0:c1]
        psi_p[:, c0:c1] = psi

        out_flux = psi.take(plan.oseg[o0:o1], axis=1)
        if self.scheme == "dd":
            out_flux *= 2.0
            out_flux -= psi_faces.take(plan.pair[o0:o1], axis=1)
            if self.fixup:
                np.maximum(out_flux, 0.0, out=out_flux)
        psi_faces[:, plan.osl[o0:o1]] = out_flux

    def leakage(self, psi_faces: np.ndarray) -> np.ndarray:
        """Outgoing partial current through the domain boundary (per group)."""
        if len(self.outflow_slots) == 0:
            return np.zeros(psi_faces.shape[1])
        return self.outflow_coeff @ psi_faces[self.outflow_slots]


class SweepPlan:
    """Level tables of one *angle set*, compiled once and reused by
    every sweep (meshtaichi ``Patcher`` layout: flat value arrays plus
    one offset table, no per-level arrays).

    An angle set (:func:`repro.sweep.dag.angle_sets` over the interior
    and boundary faces) is the angles whose kernels hold byte-identical
    CSR index tables; they share the ``int32`` tables

    * ``cells`` - cells level-major and, inside a level, by in-degree,
      so every in-degree group of a level is a slice;
    * ``slots`` - the inflow slots of ``cells``, concatenated;
    * ``osl`` / ``oseg`` / ``pair`` - per outflow face of ``cells`` its
      slot, its cell's position inside the level and (DD) the paired
      inflow slot;

    and differ only in the ``float64`` rows ``coeff[i]`` (aligned with
    ``slots``) and ``den2[i]`` (``2 * out_coeff_sum``, ``1 *`` for
    step, aligned with ``cells``).  ``levels[l]`` is ``(c0, c1,
    [(a, b, k, s0, s1), ...], o0, o1)``: the level's range of
    ``cells``, per in-degree ``k > 0`` the level-relative cell range
    and its range of ``slots``, and the level's range of ``osl``.
    """

    def __init__(self, kernels: list, angles: list, levels: list):
        self.kernels, self.angles = kernels, angles
        k0 = kernels[0]
        dd = k0.scheme == "dd"
        cstart = np.concatenate(([0], np.cumsum([len(lv) for lv in levels])))
        level_of = np.repeat(np.arange(len(levels)), np.diff(cstart))
        cells = np.concatenate(levels)
        indeg = np.diff(k0.in_indptr)[cells]
        order = np.argsort(level_of * (indeg.max() + 1) + indeg, kind="stable")
        cells, indeg = cells[order], indeg[order]
        outdeg = np.diff(k0.out_indptr)[cells]
        ipos = multi_slice(k0.in_indptr[cells], indeg)
        opos = multi_slice(k0.out_indptr[cells], outdeg)
        in_level = np.arange(len(cells)) - cstart[level_of]
        self.cells = cells.astype(np.int32)
        self.slots = k0.in_slot[ipos].astype(np.int32)
        self.osl = k0.out_slot[opos].astype(np.int32)
        self.oseg = np.repeat(in_level, outdeg).astype(np.int32)
        self.pair = k0.out_pair[opos].astype(np.int32) if dd else None
        self.coeff = np.stack([k.in_coeff[ipos] for k in kernels])
        self.den2 = (2.0 if dd else 1.0) * np.stack(
            [k.out_coeff_sum[cells] for k in kernels]
        )

        ioff = np.concatenate(([0], np.cumsum(indeg)))
        ooff = np.concatenate(([0], np.cumsum(outdeg)))[cstart].tolist()
        cstart = cstart.tolist()
        self.levels = [
            (c0, c1, [], o0, o1)
            for c0, c1, o0, o1 in zip(cstart, cstart[1:], ooff, ooff[1:])
        ]
        # An in-degree group starts where the level or the in-degree changes.
        start = np.nonzero(
            np.diff(level_of, prepend=-1) | np.diff(indeg, prepend=-1)
        )[0]
        end = np.append(start[1:], len(cells))
        for lv, a, b, k, s0, s1 in zip(
            level_of[start].tolist(), in_level[start].tolist(),
            (in_level[end - 1] + 1).tolist(), indeg[start].tolist(),
            ioff[start].tolist(), ioff[end].tolist(),
        ):
            if k:
                self.levels[lv][2].append((a, b, k, s0, s1))

    def sweep(
        self,
        src_v: np.ndarray,
        sigma_t_v: np.ndarray,
        psi_faces: np.ndarray,
        psi_cell: np.ndarray,
    ) -> None:
        """Solve every level for the whole set: ``psi_faces``
        ``(m, slots, ng)`` holds the boundary conditions and receives
        the face fluxes, ``psi_cell`` ``(m, ncells, ng)`` the cell
        fluxes.  ``sigma_t_v`` is ``(ncells,)`` or ``(ncells, ng)``.
        """
        if sigma_t_v.ndim == 1:
            sigma_t_v = sigma_t_v[:, None]
        cells = self.cells
        src_p = src_v[cells]
        den_p = sigma_t_v[cells] + self.den2[:, :, None]
        psi_p = np.empty(psi_cell.shape)
        solve_level = self.kernels[0].solve_level
        for level in range(len(self.levels)):
            solve_level(self, level, src_p, den_p, psi_faces, psi_p)
        psi_cell[:, cells] = psi_p
