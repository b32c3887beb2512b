"""Program scheduling and execution (S9 dispatch plane, paper Fig. 8).

Per-process shared priority queues, worker pools, and program
execution.  Workers pull from the process's shared active queue
themselves; the master thread is NOT on this path - it only routes
streams - which is precisely the design the paper credits for
scalability.

Core layout is owned by *policy objects* rather than mode branches:

* :class:`HybridPolicy`   - JSweep: a dedicated master core per
  process plus a worker pool, so streams are routed while workers
  compute and intra-process imbalance is absorbed by the pool.
* :class:`MpiOnlyPolicy`  - the manually-parallelized baselines
  (JASMIN/JAUMIN/PSD-b style): one rank per core; the master duties
  and the single worker *share one core's timeline*, so routing,
  unpacking and dispatch compete with computation, and there is no
  intra-process pool to absorb load imbalance.

A policy builds the master/worker :class:`~repro.runtime.simulator.
Resource` timelines outright - ``MpiOnlyPolicy`` returns the same
shared resource as both master and sole worker, labeled as the worker
core, so no resource aliasing is needed anywhere downstream.

Sits above the simulator (events, resources, shared tie-break
sequence), the router (owner lookups, crashed-process checks) and the
transport (remote emissions of completed runs).  The recovery layer,
when armed, is attached afterwards via :attr:`Scheduler.recovery` so
completed runs are marked dirty for incremental checkpointing.

Degraded-mode demotion (opt-in via :class:`~repro.runtime.faults.
AdaptiveConfig.demotion`) reads :attr:`Scheduler.proc_slow_ewma`, an
EWMA of each process's observed slowdown fed by every booked run.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.patch_program import PatchProgram, ProgramState
from ..core.stream import ProgramId, Stream
from ..core.termination import WorkloadTracker
from .._util import ReproError
from .cluster import Layout
from .costmodel import CostModel
from .metrics import Breakdown, RunReport
from .router import Router
from .simulator import KindRow, Resource, Simulator
from .transport import Transport

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .faults import AdaptiveConfig

__all__ = [
    "RunState",
    "SchedulerPolicy",
    "HybridPolicy",
    "MpiOnlyPolicy",
    "make_policy",
    "Scheduler",
]


@dataclass
class RunState:
    """Shared per-run program-execution state (Alg. 1's bookkeeping).

    All fields are parallel arrays over the *dense program index*
    minted by :meth:`add` in registration order - the same order the
    :class:`~repro.runtime.router.Router` interns ``index_of``, so the
    scheduler, router and transport agree on every index.  Hot-path
    bookkeeping (state machine, inboxes, epochs) is therefore flat list
    indexing; ``index`` maps a :class:`ProgramId` back to its slot for
    cold-path callers (recovery, requeue handling, reports).
    """

    pids: list[ProgramId] = field(default_factory=list)
    index: dict[ProgramId, int] = field(default_factory=dict)
    progs: list[PatchProgram] = field(default_factory=list)
    state: list[ProgramState] = field(default_factory=list)
    inbox: list[list[Stream]] = field(default_factory=list)
    inited: list[bool] = field(default_factory=list)
    epoch: list[int] = field(default_factory=list)  # bumped on failover

    def add(self, prog: PatchProgram) -> None:
        self.index[prog.id] = len(self.pids)
        self.pids.append(prog.id)
        self.progs.append(prog)
        self.state.append(ProgramState.ACTIVE)
        self.inbox.append([])
        self.inited.append(False)
        self.epoch.append(0)

    # -- durability (snapshot/restore) ---------------------------------------------

    def state_dict(self) -> dict:
        """Codec-ready execution state, program contexts included.

        Each initialized program contributes its ``checkpoint()`` -
        for the sweep programs their ``state_dict()``: the mutable core
        as flat lists, ``{}`` once spent - exactly like the recovery
        layer's in-sim checkpoints; never-initialized programs are in
        their pristine constructed state and contribute ``None``.
        ``pids`` rides along purely as a restore-time consistency check.
        """
        return {
            "pids": list(self.pids),
            "state": [s.value for s in self.state],
            "inbox": [list(b) for b in self.inbox],
            "inited": list(self.inited),
            "epoch": [int(e) for e in self.epoch],
            "progs": [
                (p.checkpoint() if self.inited[i] else None)
                for i, p in enumerate(self.progs)
            ],
        }

    def load_state_dict(self, d: dict) -> None:
        if list(d["pids"]) != self.pids:
            raise ReproError(
                "snapshot program set does not match this composition"
            )
        self.state = [ProgramState(v) for v in d["state"]]
        self.inbox = [list(b) for b in d["inbox"]]
        self.inited = [bool(v) for v in d["inited"]]
        self.epoch = [int(e) for e in d["epoch"]]
        for prog, snap, inited in zip(self.progs, d["progs"], self.inited):
            if inited and snap is not None:
                prog.restore(snap)


class SchedulerPolicy:
    """Core-layout policy: how masters and workers map onto cores."""

    mode: str

    def build_resources(
        self, nprocs: int, layout: Layout
    ) -> tuple[list[Resource], list[list[Resource]]]:
        """Return ``(masters, workers)`` resource timelines per process."""
        raise NotImplementedError


class HybridPolicy(SchedulerPolicy):
    """Dedicated master core + worker pool per process (JSweep)."""

    mode = "hybrid"

    def build_resources(
        self, nprocs: int, layout: Layout
    ) -> tuple[list[Resource], list[list[Resource]]]:
        masters = [Resource(("m", p)) for p in range(nprocs)]
        workers = [
            [Resource(("w", p, w)) for w in range(layout.workers_per_proc)]
            for p in range(nprocs)
        ]
        return masters, workers


class MpiOnlyPolicy(SchedulerPolicy):
    """One rank per core: master duties and the worker share the core."""

    mode = "mpi_only"

    def build_resources(
        self, nprocs: int, layout: Layout
    ) -> tuple[list[Resource], list[list[Resource]]]:
        shared = [Resource(("w", p, 0)) for p in range(nprocs)]
        return shared, [[r] for r in shared]


def make_policy(mode: str) -> SchedulerPolicy:
    if mode == "hybrid":
        return HybridPolicy()
    if mode == "mpi_only":
        return MpiOnlyPolicy()
    raise ReproError(f"unknown runtime mode {mode!r}")


class Scheduler:
    """Shared-queue dispatch and worker-side program execution."""

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        policy: SchedulerPolicy,
        layout: Layout,
        st: RunState,
        cm: CostModel,
        report: RunReport,
        bd: Breakdown,
        slow: Callable[[int, float], float],
        transport: Transport,
        tracker: WorkloadTracker,
        adaptive: AdaptiveConfig | None = None,
    ) -> None:
        self.sim = sim
        self.router = router
        self.policy = policy
        self.st = st
        self.cm = cm
        self.report = report
        self.bd = bd
        self.slow = slow
        self.transport = transport
        self.tracker = tracker
        self.recovery = None  # attached by the recovery layer when armed
        nprocs = router.nprocs
        self.masters, self.workers = policy.build_resources(nprocs, layout)
        self.idle_workers: list[list[int]] = [
            list(range(len(self.workers[p])))[::-1] for p in range(nprocs)
        ]
        self.pq: list[list] = [[] for _ in range(nprocs)]
        # Queue/run membership over dense program indices (see RunState).
        self.queued: set[int] = set()
        self.running: set[int] = set()
        self._run_serial = 0  # unique id per booked execution
        #: Whether booked runs feed :attr:`proc_slow_ewma` (demotion on).
        self.track_slow = adaptive is not None and adaptive.demotion
        #: EWMA of each process's observed slowdown factor; the
        #: recovery layer's health probe reads this for demotion.
        self.proc_slow_ewma: list[float] = [1.0] * nprocs
        # -- hot-path caches ---------------------------------------------
        #: Set by the composition root when the slowdown hook is the
        #: constant 1.0 (no fault injector): execute/complete then skip
        #: the per-run hook call and the ``* 1.0`` scalings, which are
        #: bitwise no-ops on IEEE doubles.
        self.unit_slow = False
        self._k_run_start = sim.kind_id("run_start")
        self._k_run_end = sim.kind_id("run_end")
        self._k_deliver = sim.kind_id("deliver")

    def kinds(self) -> list[KindRow]:
        """The data plane's rows of the event-kind table (Alg. 1)."""
        return [
            KindRow("run_start", self.execute, progress=True, stale=self.stale_run),
            KindRow("run_end", self.complete, progress=True, stale=self.stale_run),
            KindRow("msg_arrive", self.arrive, progress=True, stale=self.dead_receiver),
            KindRow("deliver", self.deliver, progress=True),
            KindRow("requeue", self.requeue, progress=True, stale=self.stale_requeue),
        ]

    # -- queueing and dispatch -----------------------------------------------------

    def enqueue(self, i: int) -> None:
        """Push a program (by dense index) onto its owner's queue."""
        if i in self.queued or i in self.running:
            return
        self.queued.add(i)
        seq = self.sim.next_seq()
        heapq.heappush(
            self.pq[self.router.proc_idx[i]],
            (-self.st.progs[i].priority(), seq, i),
        )

    def dispatch(self, p: int, now: float) -> None:
        """Hand queued programs to idle workers of process ``p``.

        Workers pull from the shared active queue themselves (Fig. 8);
        the pop cost is charged to the worker as part of the run.
        """
        if p in self.router.dead:
            return
        while self.idle_workers[p] and self.pq[p]:
            _, _, i = heapq.heappop(self.pq[p])
            if self.router.proc_idx[i] != p:
                continue  # stale entry: the program migrated away
            self.queued.discard(i)
            if self.st.state[i] is not ProgramState.ACTIVE or i in self.running:
                continue
            w = self.idle_workers[p].pop()
            self.running.add(i)
            self.sim.push_id(
                now, self._k_run_start, (p, w, i, self.st.epoch[i])
            )

    def release(self, p: int, w: int, now: float) -> None:
        """Return worker ``w`` to the idle pool and re-dispatch."""
        self.idle_workers[p].append(w)
        self.dispatch(p, now)

    def drop(self, i: int) -> None:
        """Forget a migrating program's queue/run residue (failover)."""
        self.running.discard(i)
        self.queued.discard(i)

    def revive(self, p: int) -> None:
        """Rebuild a restarted process's idle worker pool (rejoin).

        Workers running at crash time are never released - their
        run_end events are filtered as dead-proc residue - so a
        rejoining incarnation would otherwise dispatch into an empty
        pool forever.  All of the old life's programs migrated away at
        suspicion, so the full roster is exactly the idle set.
        """
        self.idle_workers[p] = list(range(len(self.workers[p])))[::-1]

    def stale_run(self, data: tuple, now: float) -> bool:
        """Filter superseded run events (only faults ever trigger this)."""
        p, w, i, ep = data[0], data[1], data[2], data[-1]
        if p in self.router.dead:
            return True  # executed on a crashed process: lost
        if ep != self.st.epoch[i]:
            # Superseded execution on a live process (defensive;
            # reachable only through failover races): free the worker,
            # drop the run.  A run that straddled a crash+rejoin may
            # find its worker already back in the revived pool.
            if w not in self.idle_workers[p]:
                self.release(p, w, now)
            return True
        return False

    def dead_receiver(self, data: tuple, now: float) -> bool:
        """Filter arrivals at a crashed process (the sender retries)."""
        return data[0] in self.router.dead

    def stale_requeue(self, data: tuple, now: float) -> bool:
        """Filter a requeue a later migration or crash superseded."""
        pid, ep = data
        st, router = self.st, self.router
        return ep != st.epoch[st.index[pid]] or router.proc_of[pid] in router.dead

    # -- master-side routing (Alg. 1 outer loop) -----------------------------------

    def arrive(self, data: tuple, now: float) -> None:
        """A remote stream reached its process: the master verifies,
        acks and unpacks it, then hands it to the program."""
        p, s, wid = data
        if not self.transport.receive(s, p, now, wid):
            self.sim.retract_progress()  # nothing was delivered
            return
        dur = self.cm.unpack_cost(1, s.items)
        if not self.unit_slow:
            dur *= self.slow(p, now)
        master = self.masters[p]
        _, end = master.book(now, dur)
        self.bd.add(master.core, "unpack", dur)
        di = s.dsti if s.dsti >= 0 else self.router.index_of[s.dst]
        self.sim.push_id(end, self._k_deliver, (di, s))

    def deliver(self, data: tuple, now: float) -> None:
        """Append a routed stream to its program's inbox and activate
        the program (Fig. 7: inactive -> active on input)."""
        i, s = data
        st = self.st
        st.inbox[i].append(s)
        if self.recovery is not None:
            self.recovery.log_delivery(st.pids[i], s)
        if st.state[i] is not ProgramState.ACTIVE:
            st.state[i] = ProgramState.ACTIVE
        if i in self.running:
            return
        p = self.router.proc_idx[i]
        idle = self.idle_workers[p]
        if idle and not self.pq[p] and p not in self.router.dead:
            # Queue bypass (see complete): dispatch would pop exactly
            # this program onto exactly this worker; skipping the queue
            # round trip only renumbers sequence ticks, never reorders.
            self.running.add(i)
            self.sim.push_id(now, self._k_run_start, (p, idle.pop(), i, st.epoch[i]))
        else:
            self.enqueue(i)
            self.dispatch(p, now)

    def requeue(self, data: tuple, now: float) -> None:
        """A migrated program finished installing at its new owner."""
        i = self.st.index[data[0]]
        self.enqueue(i)
        self.dispatch(self.router.proc_idx[i], now)

    # -- worker-side execution (Alg. 1 inner loop) ---------------------------------

    def execute(self, data: tuple, now: float) -> None:
        """Run one program on its assigned worker; books virtual time."""
        p, w, i, ep = data
        st = self.st
        prog = st.progs[i]
        unit = self.unit_slow
        sf = 1.0 if unit else self.slow(p, now)
        report = self.report
        if ep > 0:
            report.reexecutions += 1
        if not st.inited[i]:
            prog.init()
            st.inited[i] = True
        box = st.inbox[i]
        if box:
            for s in box:
                prog.input(s)
            box.clear()
        prog.compute()
        outputs = prog.drain_outputs()
        counters = prog.run_counters()
        pid = st.pids[i]
        index_of = self.router.index_of
        proc_idx = self.router.proc_idx
        remote_streams = remote_items = 0
        for s in outputs:
            di = s.dsti
            if di < 0:
                # First routing of a fresh stream: refuse what the
                # serial engine refuses (sweep programs pass ``self.id``).
                if s.src is not pid and s.src != pid:
                    raise ReproError(
                        f"program {pid!r} emitted a stream claiming src {s.src!r}"
                    )
                di = index_of.get(s.dst, -1)
                if di < 0:
                    raise ReproError(f"stream to unknown program {s.dst!r}")
                s.dsti = di
            if proc_idx[di] != p:
                remote_streams += 1
                remote_items += s.items
        cm = self.cm
        kernel, graph_op, pack, fixed = cm.run_cost_parts(
            pid, counters, remote_streams, remote_items
        )
        report.vertices_solved += counters[0]
        t_sched = cm.t_sched
        # Left-to-right sum of the parts, then the queue pop / dispatch
        # charge (BSPSweepRuntime folds the same parts with ``sum``).
        duration = kernel + graph_op + pack + fixed + t_sched
        wres = self.workers[p][w]
        core = wres.core
        if unit:
            _, end = wres.book(now, duration)
            self.bd.add_run(core, kernel, graph_op + fixed, pack, t_sched)
        else:
            _, end = wres.book(now, duration * sf)
            self.bd.add_run(
                core, kernel * sf, (graph_op + fixed) * sf, pack * sf,
                t_sched * sf,
            )
        report.executions += 1
        self._run_serial += 1
        serial = self._run_serial
        self.sim.push_id(end, self._k_run_end, (p, w, i, outputs, serial, ep))
        if self.track_slow:
            # Slowdown telemetry: cheap EWMA per process, fed to the
            # recovery layer's health probe for demotion decisions.
            self.proc_slow_ewma[p] = 0.8 * self.proc_slow_ewma[p] + 0.2 * sf

    def complete(self, data: tuple, now: float) -> None:
        """Finish one run: route emissions, commit workload, requeue."""
        p, w, i, outputs, serial, ep = data
        st = self.st
        note = self.sim.note_hook is not None
        prog = st.progs[i]
        unit = self.unit_slow
        proc_idx = self.router.proc_idx
        master = self.masters[p]
        for s in outputs:
            self.report.stream_items += s.items
            dst_p = proc_idx[s.dsti]
            if dst_p == p:
                # Local routing through the master thread.
                dur = (
                    self.cm.t_route if unit
                    else self.cm.t_route * self.slow(p, now)
                )
                _, end = master.book(now, dur)
                self.bd.add(master.core, "comm", dur)
                self.report.local_streams += 1
                self.sim.push_id(end, self._k_deliver, (s.dsti, s))
            else:
                self.transport.send(s, st.pids[i], ep, now, p, dst_p)
        self.running.discard(i)
        if self.recovery is not None:
            self.recovery.mark_dirty(st.pids[i])
        rem = prog.remaining_workload()
        if rem is not None:
            # Workload-commit fast path; epoch-keyed so a stale
            # execution cannot overwrite a migrated program's fresher
            # commit.  Tracker keys are the dense indices.
            if note:
                self.sim.note(
                    now, "hb_commit", (str(st.pids[i]), p, ep, serial, rem)
                )
            self.tracker.commit(i, rem, epoch=ep)
        if prog.vote_to_halt() and not st.inbox[i]:
            st.state[i] = ProgramState.INACTIVE
        else:
            st.state[i] = ProgramState.ACTIVE
            if not self.pq[p] and proc_idx[i] == p and p not in self.router.dead:
                # Queue bypass: the freed worker immediately re-runs the
                # only runnable program of its process.  Equivalent to
                # enqueue + release: dispatch would pop exactly this
                # entry and hand it exactly this worker (the idle pool
                # is LIFO and ``w`` would be the most recent append),
                # and renumbering the sequence counter over the skipped
                # queue entry preserves every relative event order.
                self.running.add(i)
                self.sim.push_id(
                    now, self._k_run_start, (p, w, i, st.epoch[i])
                )
                return
            self.enqueue(i)
        self.release(p, w, now)

    # -- durability (snapshot/restore) ---------------------------------------------

    def state_dict(self) -> dict:
        """Codec-ready dispatch state.

        The shared priority queues and the LIFO idle pools are captured
        *verbatim* (a heap is just a list with the heap invariant; the
        idle pools' order decides which worker runs next), while the
        membership-only queue/run sets are sorted.  Resource
        timelines reduce to their ``free`` horizon - bookings in the
        past are immutable history already folded into the breakdown.
        """
        return {
            "masters_free": [r.free for r in self.masters],
            "workers_free": [[r.free for r in row] for row in self.workers],
            "idle_workers": [list(x) for x in self.idle_workers],
            "pq": [list(q) for q in self.pq],
            "queued": sorted(self.queued),
            "running": sorted(self.running),
            "run_serial": self._run_serial,
            "proc_slow_ewma": list(self.proc_slow_ewma),
        }

    def load_state_dict(self, d: dict) -> None:
        # Workers first, masters second: under ``mpi_only`` each master
        # *is* its process's sole worker (same Resource object), and
        # this order makes the aliased double-write idempotent.
        for row, frees in zip(self.workers, d["workers_free"]):
            for r, f in zip(row, frees):
                r.free = float(f)
        for r, f in zip(self.masters, d["masters_free"]):
            r.free = float(f)
        self.idle_workers = [list(x) for x in d["idle_workers"]]
        self.pq = [[tuple(e) for e in q] for q in d["pq"]]
        self.queued = set(d["queued"])
        self.running = set(d["running"])
        self._run_serial = int(d["run_serial"])
        self.proc_slow_ewma = [float(x) for x in d["proc_slow_ewma"]]

    # -- reporting -----------------------------------------------------------------

    def cores(self) -> list[tuple]:
        """Every core timeline of the layout (masters may share with
        workers under ``mpi_only``; the set dedupes)."""
        nprocs = self.router.nprocs
        return sorted(
            {r.core for p in range(nprocs) for r in self.workers[p]}
            | {self.masters[p].core for p in range(nprocs)}
        )
