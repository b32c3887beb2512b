"""Baseline sweep schedulers: KBA and BSP (system S16).

* :class:`KBASchedule` - the Koch-Baker-Alcouffe wavefront algorithm
  for regular structured meshes (the Denovo/Sweep3D approach the paper
  compares against in Table I).  The 3-D mesh is decomposed into a 2-D
  columnar Px x Py process grid; blocks of k-planes pipeline through
  the processor array for every angle.

* :class:`BSPSweepRuntime` - sweeping inside the BSP component model
  (Sec. II-D's motivation): every super-step each patch computes all
  *currently ready* vertices, then a global barrier and bulk exchange
  deliver the produced face data.  The number of super-steps equals the
  patch-graph critical path, and every step pays barrier plus
  max-process compute time - the inefficiency that motivates JSweep.
  Runs, admission, ``patch_proc`` checks and the end-of-run check are
  the serial engine's and the DES runtime's (``repro.core.engine``).

Both baselines run on the shared DES substrate
(:mod:`repro.runtime.simulator`) with the same latency/bandwidth
machine model and cost model as the data-driven runtime - events on
one heap type, busy time on the same :class:`~repro.runtime.simulator.
Resource` timelines - so Table I's efficiency comparison is
apples-to-apples, as the paper's own caveat requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ReproError
from ..core.engine import RunState, admit, run_step
from ..core.patch_program import PatchProgram, ProgramState
from ..core.stream import Stream
from ..core.termination import verify_quiescent
from ..runtime.cluster import Machine, TIANHE2
from ..runtime.costmodel import CostModel
from ..runtime.router import check_patch_proc
from ..runtime.simulator import Resource, Simulator

__all__ = ["KBASchedule", "KBAResult", "BSPSweepRuntime", "BSPSweepResult"]


# ---------------------------------------------------------------------------
# KBA
# ---------------------------------------------------------------------------


@dataclass
class KBAResult:
    """Outcome of a simulated KBA sweep."""

    time: float
    serial_time: float
    num_tasks: int
    stages: int

    @property
    def speedup(self) -> float:
        return self.serial_time / self.time if self.time > 0 else 0.0

    def efficiency(self, cores: int) -> float:
        return self.speedup / cores


class KBASchedule:
    """Pipelined KBA wavefront sweep on a Px x Py columnar decomposition."""

    def __init__(
        self,
        shape: tuple[int, int, int],
        px: int,
        py: int,
        k_blocks: int = 8,
        machine: Machine = TIANHE2,
        cost: CostModel | None = None,
    ):
        if len(shape) != 3:
            raise ReproError("KBA requires a 3-D structured mesh")
        if px <= 0 or py <= 0 or k_blocks <= 0:
            raise ReproError("px, py, k_blocks must be positive")
        if shape[0] < px or shape[1] < py or shape[2] < k_blocks:
            raise ReproError("decomposition finer than the mesh")
        self.shape = shape
        self.px, self.py = px, py
        self.k_blocks = k_blocks
        self.machine = machine
        self.cost = cost if cost is not None else CostModel()

    def simulate(self, num_angles: int, octants: int = 8) -> KBAResult:
        """Simulate sweeping ``num_angles`` directions (spread over octants).

        Angles in one octant pipeline back-to-back; octants run in
        sequence of four corner pairs, the classic KBA octant schedule.
        """
        nx, ny, nz = self.shape
        px, py, kb = self.px, self.py, self.k_blocks
        cm = self.cost
        block_cells = (nx / px) * (ny / py) * (nz / kb)
        t_block = block_cells * cm.t_vertex * cm.groups
        # Face data shipped downwind per block, per direction.
        bytes_x = (ny / py) * (nz / kb) * 8 * cm.groups
        bytes_y = (nx / px) * (nz / kb) * 8 * cm.groups
        layout = self.machine.layout(px * py, "mpi_only")

        def proc(i: int, j: int) -> int:
            return i * py + j

        angles_per_octant = max(1, num_angles // octants)
        # Corner-paired octant schedule: 4 sequential phases, two
        # opposite octants each (they never collide on a process).
        phases = [
            [(1, 1), (-1, -1)],
            [(1, -1), (-1, 1)],
            [(1, 1), (-1, -1)],
            [(1, -1), (-1, 1)],
        ][: max(1, octants // 2)]

        total_time = 0.0
        num_tasks = 0
        stages = 0
        for phase in phases:
            # Event simulation of one phase on the shared DES core:
            # tasks (i, j, k, a) for each direction of the phase's
            # octants, one fresh event heap and set of process
            # timelines per phase (phases run in sequence).
            sim = Simulator()
            procs_res = [Resource(("kba", p)) for p in range(px * py)]
            remaining = {}
            finish = 0.0
            for sx, sy in phase:
                for a in range(angles_per_octant):
                    for i in range(px):
                        for j in range(py):
                            for k in range(kb):
                                key = (sx, sy, a, i, j, k)
                                deps = 0
                                if (sx > 0 and i > 0) or (sx < 0 and i < px - 1):
                                    deps += 1
                                if (sy > 0 and j > 0) or (sy < 0 and j < py - 1):
                                    deps += 1
                                if k > 0:
                                    deps += 1  # k-pipeline is process-local
                                if a > 0:
                                    deps += 1  # angle pipelining in-order
                                remaining[key] = deps
                                if deps == 0:
                                    # Single-kind loop: every pop below
                                    # consumes a 'task', no dispatch.
                                    sim.push(0.0, "task", key)
            num_tasks += len(remaining)

            def release(key, t):
                remaining[key] -= 1
                if remaining[key] == 0:
                    sim.push(t, "task", key)

            while sim:
                t_ready, _, key = sim.pop()
                sx, sy, a, i, j, k = key
                p = proc(i, j)
                start, end = procs_res[p].book(t_ready, t_block)
                finish = max(finish, end)
                ni = i + (1 if sx > 0 else -1)
                if 0 <= ni < px:
                    arr = end + self.machine.message_time(
                        p, proc(ni, j), int(bytes_x), layout
                    )
                    release((sx, sy, a, ni, j, k), arr)
                nj = j + (1 if sy > 0 else -1)
                if 0 <= nj < py:
                    arr = end + self.machine.message_time(
                        p, proc(i, nj), int(bytes_y), layout
                    )
                    release((sx, sy, a, i, nj, k), arr)
                if k + 1 < kb:
                    release((sx, sy, a, i, j, k + 1), end)
                if a + 1 < angles_per_octant:
                    release((sx, sy, a + 1, i, j, k), end)
            total_time += finish
            stages += 1

        serial = (
            nx * ny * nz * cm.t_vertex * cm.groups
            * angles_per_octant * 2 * len(phases)
        )
        return KBAResult(
            time=total_time, serial_time=serial, num_tasks=num_tasks,
            stages=stages,
        )


# ---------------------------------------------------------------------------
# BSP sweep
# ---------------------------------------------------------------------------


@dataclass
class BSPSweepResult:
    """Outcome of a BSP-super-step sweep."""

    time: float
    supersteps: int
    compute_time: float
    barrier_time: float
    comm_time: float
    idle_core_seconds: float
    executions: int

    def idle_fraction(self, total_cores: int) -> float:
        denom = self.time * total_cores
        return self.idle_core_seconds / denom if denom > 0 else 0.0


class BSPSweepRuntime:
    """Sweep with JAxMIN's native BSP model (the motivation baseline).

    Each super-step: every active patch-program runs once over all the
    work that is currently ready (unbounded grain would be unfair to
    neither side - programs keep their configured grain semantics by
    running to exhaustion within the step), then a global barrier, then
    streams produced this step are delivered for the next one.  Within
    a step programs run in ``(patch, str(task))`` order; a halt makes
    a program INACTIVE, a delivery ACTIVE (Fig. 7).
    """

    def __init__(
        self,
        total_cores: int,
        machine: Machine = TIANHE2,
        cost: CostModel | None = None,
    ):
        self.machine = machine
        self.cost = cost if cost is not None else CostModel()
        self.layout = machine.layout(total_cores, "hybrid")

    def run(self, programs: list[PatchProgram], patch_proc: np.ndarray) -> BSPSweepResult:
        lay = self.layout
        cm = self.cost
        nprocs = lay.nprocs
        patch_proc = check_patch_proc(programs, patch_proc, nprocs)
        st = RunState()
        for prog in programs:
            st.add(prog)
        pids = st.pids
        proc = [int(patch_proc[pid.patch]) for pid in pids]
        order = [(pid.patch, str(pid.task)) for pid in pids]  # within a step
        active = set(range(len(pids)))

        time_total = 0.0
        compute_total = 0.0
        barrier_total = 0.0
        comm_total = 0.0
        idle_core_seconds = 0.0
        executions = 0
        steps = 0
        barrier = np.log2(max(2, nprocs)) * self.machine.latency_inter

        # Super-steps run as events on the shared DES core: each step's
        # end time schedules the next, and per-process compute is booked
        # on a per-process timeline (master+workers fused, as BSP has no
        # dispatch concurrency to model).
        sim = Simulator()
        procs_res = [Resource(("bsp", p)) for p in range(nprocs)]
        # Single-kind loop: each pop is the next BSP super-step.
        sim.push(0.0, "superstep", None)
        while sim:
            now, _, _ = sim.pop()
            steps += 1
            proc_time = np.zeros(nprocs)
            send_bytes = np.zeros(nprocs)
            recv_bytes = np.zeros(nprocs)
            msgs = 0
            pending: list[tuple[int, int, Stream]] = []
            for i in sorted(active, key=order.__getitem__):
                prog = st.progs[i]
                p = proc[i]
                # Run the program to exhaustion within the super-step
                # (BSP: no mid-step delivery can wake anyone else).
                v = e = pops = inp = 0
                remote_streams = remote_items = 0
                while True:
                    outputs = run_step(st, i)
                    cv, ce, cpops, cinp = prog.run_counters()
                    executions += 1
                    v, e, pops, inp = v + cv, e + ce, pops + cpops, inp + cinp
                    for s in outputs:
                        di = s.dsti if s.dsti >= 0 else admit(pids[i], s, st.index)
                        pending.append((p, di, s))
                        if proc[di] != p:
                            remote_streams += 1
                            remote_items += s.items
                    if prog.vote_to_halt():
                        break
                st.state[i] = ProgramState.INACTIVE
                proc_time[p] += sum(cm.run_cost_parts(
                    pids[i], (v, e, pops, inp), remote_streams, remote_items,
                ))
            # Deliver all streams for the next step (Fig. 7: a delivery
            # activates its target).
            active = set()
            for sp, di, s in pending:
                st.inbox[di].append(s)
                st.state[di] = ProgramState.ACTIVE
                active.add(di)
                dp = proc[di]
                if sp != dp:
                    msgs += 1
                    send_bytes[sp] += s.nbytes
                    recv_bytes[dp] += s.nbytes
            # Per-proc compute happens worker-parallel (idealized).
            per_proc = proc_time / lay.workers_per_proc
            step_compute = float(per_proc.max()) if nprocs else 0.0
            comm = float(
                np.maximum(send_bytes, recv_bytes).max() / self.machine.bandwidth
                + (self.machine.latency_inter if msgs else 0.0)
            )
            for p in range(nprocs):
                procs_res[p].book(now, float(per_proc[p]))
            end = now + (step_compute + barrier + comm)
            sim.observe(end)
            time_total = end
            compute_total += step_compute
            barrier_total += barrier
            comm_total += comm
            idle_core_seconds += float(
                (step_compute - per_proc).sum() * lay.workers_per_proc
            )
            if active:
                sim.push(end, "superstep", None)

        verify_quiescent(st)
        return BSPSweepResult(
            time=time_total,
            supersteps=steps,
            compute_time=compute_total,
            barrier_time=barrier_total,
            comm_time=comm_total,
            idle_core_seconds=idle_core_seconds,
            executions=executions,
        )
