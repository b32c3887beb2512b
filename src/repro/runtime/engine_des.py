"""Discrete-event-simulated data-driven runtime (Sec. IV): the
composition root over the layered simulator substrate.

Executes patch-programs with the serial engine's run step
(``repro.core.engine``), but on a simulated multicore cluster (master
thread routing streams, worker threads executing programs, per Fig. 8).
Because the *real* algorithm runs, every schedule-level phenomenon of
the paper emerges rather than being modeled; only the time axis is
synthetic (DESIGN.md).
The machinery lives in layers, each documented in its own module:
``simulator`` < ``router`` < ``transport`` < ``scheduler`` <
``recovery``, with the one master event loop in ``loop`` and the
snapshot schema in ``checkpoint`` (DESIGN.md §13).

:class:`DataDrivenRuntime` validates the run, wires the layers
together, collects each layer's rows of the event-kind table, hands
the composition to the master event loop (Alg. 1), and negotiates
termination.  With ``trace=True`` every processed event is recorded on
``RunReport.trace_events`` (exportable via ``to_chrome_trace``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .._util import ReproError
from ..core.engine import RunState
from ..core.patch_program import PatchProgram
from ..core.termination import WorkloadTracker, consensus_hops, verify_quiescent
from .checkpoint import (
    SNAPSHOT_VERSION, HostKilled, assemble_state, check_persist, restore_into,
)
from .checker import HbChecker
from .cluster import Machine, TIANHE2
from .costmodel import CostModel
from .faults import FaultInjector, FaultPlan, RecoveryConfig
from .loop import run_loop
from .metrics import Breakdown, DeadlineExceeded, RunReport, trace_fields
from .recovery import RecoveryManager
from .router import Router
from .scheduler import Scheduler, make_policy
from .simulator import Simulator
from .transport import Transport

__all__ = ["DataDrivenRuntime", "DeadlineExceeded", "HostKilled", "SNAPSHOT_VERSION"]

class DataDrivenRuntime:
    """DES executor for patch-programs on a simulated cluster."""

    def __init__(
        self,
        total_cores: int,
        machine: Machine = TIANHE2,
        cost: CostModel | None = None,
        mode: str = "hybrid",
        termination: str = "workload",
        faults: FaultPlan | None = None,
        recovery: RecoveryConfig | None = None,
        trace: bool = False,
        sanitize: bool = False,
    ):
        if termination not in ("workload", "consensus"):
            raise ReproError(f"unknown termination mode {termination!r}")
        self.machine = machine
        self.cost = cost if cost is not None else CostModel()
        self.layout = machine.layout(total_cores, mode)
        self.mode = mode
        self.termination = termination
        self.faults = faults
        # Armed explicitly, or by a plan that can lose work.
        lossy = faults is not None and faults.needs_recovery()
        self.recovery = recovery or (RecoveryConfig() if lossy else None)
        self.trace = trace
        self.sanitize = sanitize  # online run checker (chaos harness)
        self._ctx: SimpleNamespace | None = None  # the driving run, if any

    def run(
        self,
        programs: list[PatchProgram],
        patch_proc: np.ndarray,
        deadline: float | None = None,
        persist=None,
    ) -> RunReport:
        """Execute ``programs`` to global termination; returns the report.

        ``patch_proc[p]`` is the owning process of patch ``p``;
        ``deadline`` an optional virtual-time budget; ``persist`` an
        optional snapshot manager (see :mod:`repro.persist`).
        """
        check_persist(self, persist)
        ctx = self._compose(programs, patch_proc, persist)
        self._seed(ctx)
        return self._drive(ctx, deadline)

    # -- composition ---------------------------------------------------------------

    def _compose(self, programs, patch_proc, persist=None) -> SimpleNamespace:
        """Wire the runtime layers together (no events scheduled yet).

        A pure function of configuration + program set, so a restarted
        process composes a structurally identical stack - which is
        what lets :meth:`restore` load a snapshot into it.
        """
        lay = self.layout
        st = RunState()
        for prog in programs:
            st.add(prog)  # refuses duplicate ids
        router = Router(programs, patch_proc, lay.nprocs)
        plan, rcfg = self.faults, self.recovery
        if plan is not None:
            wd = rcfg.watchdog_horizon if rcfg is not None else None
            plan.validate(lay.nprocs, horizon=wd)
        inj = FaultInjector(plan) if plan is not None else None
        ft = rcfg is not None  # ack/retry + checkpoint/failover machinery on
        demotion = ft and rcfg.demotion
        # Failover, demotion and rejoin replay streams into migrated
        # programs: with any of them armed, input must be idempotent.
        need = ("crash recovery" if plan is not None and plan.crashes else
                "degraded-mode demotion" if demotion
                else "elastic membership" if ft and rcfg.membership else None)
        bad = [p for p in programs if not p.resilient_input] if need else []
        if bad:
            raise ReproError(
                f"{need} replays streams from checkpoints and requires "
                f"resilient programs: {bad[0].id!r} does not set "
                "resilient_input (build sweep programs with resilient=True)")
        bd = Breakdown()
        report = RunReport(makespan=0.0, breakdown=bd, total_cores=lay.total_cores)
        # One note hook: the trace buffer, the online run checker, or both.
        checker = HbChecker(run=(router, st)) if self.sanitize else None
        hooks = [h for h in (report.hb_events.append if self.trace else None,
                             checker and checker.observe) if h]
        sim = Simulator(
            trace_hook=report.trace_events.append if self.trace else None,
            trace_fields=lambda k, d: trace_fields(k, d, router.pids),
            note_hook=(hooks[0] if len(hooks) == 1 else
                       (lambda ev: [h(ev) for h in hooks]) if hooks else None),
        )
        tracker = WorkloadTracker()
        slow = inj.slowdown if inj is not None else (lambda p, now: 1.0)
        transport = Transport(sim, router, self.machine, lay, report, injector=inj, rcfg=rcfg)
        sched = Scheduler(
            sim, router, make_policy(self.mode), lay, st,
            self.cost, report, bd, slow, transport, tracker, demotion=demotion,
        )
        # No injector: slowdown hook is 1.0; skip per-run calls/scalings.
        sched.unit_slow = inj is None
        rec = RecoveryManager(
            sim, router, transport, sched, rcfg, report, bd, st, slow
        ) if ft else None
        # One row per event kind, read off the layer *instances* (bound
        # handlers pick up class-level instrumentation in force).
        layers = (sched, transport, rec) if ft else (sched, transport)
        table = sim.declare(row for layer in layers for row in layer.kinds())
        return SimpleNamespace(
            router=router, plan=plan, inj=inj, ft=ft,
            bd=bd, report=report, sim=sim, st=st, tracker=tracker,
            checker=checker, transport=transport, sched=sched, rec=rec,
            popped=0,  # events popped (the snapshot/kill coordinate)
            persist=persist, table=table,
        )

    def _seed(self, ctx: SimpleNamespace) -> None:
        """Schedule the initial events: every program starts active."""
        for i in range(len(ctx.st.progs)):
            ctx.sched.enqueue(i)
        for p in range(self.layout.nprocs):
            ctx.sched.dispatch(p, 0.0)
        if ctx.plan is not None:
            for c in ctx.plan.crashes:
                ctx.sim.push(c.time, "crash", c.proc)
        if ctx.ft:
            ctx.rec.arm()

    # -- the master event loop (Alg. 1, see the loop module) ------------------------

    def _drive(self, ctx: SimpleNamespace, deadline: float | None) -> RunReport:
        """Run the one master loop over a seeded or restored context."""
        # ``not >`` also refuses NaN, which no clock would ever pass.
        if deadline is not None and not deadline > 0:
            raise ReproError(f"run deadline must be positive; got {deadline!r}")
        self._ctx = ctx
        try:
            late = run_loop(self, ctx, deadline)
        finally:
            self._ctx = None
        if late is not None:
            raise DeadlineExceeded(
                deadline, late, self._account(ctx, ctx.sim.makespan)
            )
        return self._finish(ctx)

    # -- durability (snapshot/restore/resume, see checkpoint module) ---------------

    def snapshot(self) -> dict:
        """The state dict of the currently-driving run (tests/tools);
        raises when no run is active."""
        if self._ctx is None:
            raise ReproError("no active run to snapshot")
        return assemble_state(self, self._ctx)

    def restore(
        self,
        programs: list[PatchProgram],
        patch_proc: np.ndarray,
        state: dict,
        persist=None,
    ) -> SimpleNamespace:
        """Compose a fresh runtime stack and load ``state`` into it
        (see :func:`repro.runtime.checkpoint.restore_into`); returns
        the loaded context, which :meth:`resume` drives to completion."""
        check_persist(self, persist)
        return restore_into(self, programs, patch_proc, state, persist)

    def resume(
        self,
        programs: list[PatchProgram],
        patch_proc: np.ndarray,
        state: dict,
        deadline: float | None = None,
        persist=None,
    ) -> RunReport:
        """Restore a snapshot and drive the run to completion.

        The continuation replays the exact event sequence, so report
        and flux are bitwise-identical to a never-interrupted run.
        """
        ctx = self.restore(programs, patch_proc, state, persist=persist)
        return self._drive(ctx, deadline)

    def _finish(self, ctx: SimpleNamespace) -> RunReport:
        """Post-run checks, termination negotiation, final accounting."""
        st, report = ctx.st, ctx.report
        verify_quiescent(st, ctx.tracker)
        if ctx.checker is not None:
            ctx.checker.finish()
            report.sanitizer_checks = ctx.checker.records
        makespan = ctx.sim.makespan
        if self.termination == "consensus":
            hops = consensus_hops(ctx.router.nprocs - len(ctx.router.dead))
            report.termination_hops = hops
            report.termination_time = hops * self.machine.latency_inter
            makespan += report.termination_time
        return self._account(ctx, makespan)

    @staticmethod
    def _account(ctx: SimpleNamespace, makespan: float) -> RunReport:
        """Stamp the accounting every ended run owes - complete or
        cancelled at its deadline: makespan, idle time, perf counters."""
        report = ctx.report
        report.makespan = makespan
        report.peak_heap = ctx.sim.peak_heap
        report.event_counts = ctx.sim.event_counts()
        ctx.bd.finalize_idle(makespan, ctx.sched.cores())
        return report
