"""Checkpointing, delivery logs and failover orchestration (S20).

The top resilience layer of the runtime stack.  Each process
periodically snapshots its resident programs (local context +
unconsumed inbox + un-acked sends); snapshots are *incremental* - a
program untouched since its last snapshot is skipped, so checkpoint
cost follows activity rather than residency.  A delivery log records
streams delivered after a program's snapshot; it is the snapshot's
replay suffix and is only cleared when a fresh snapshot supersedes it.

On a crash, the dead process's patches are re-assigned to survivors
through the router; each migrated program is restored from its
snapshot, its delivery log replayed into its inbox, its checkpointed
un-acked sends retransmitted verbatim through the transport, and its
execution epoch bumped so events and workload commits of the lost
execution are recognized as stale.

Replay may re-batch a program's emissions differently than the lost
execution, so exact recovery additionally requires *idempotent* input
(programs built with ``resilient_input``; sweep programs dedupe on
remote-edge ids).  Since sweep kernels write each cell by assignment
from fixed upwind values, re-executed vertices recompute bit-identical
results: a recovered run matches the fault-free numerics exactly.

Degraded-mode demotion (opt-in via :class:`~repro.runtime.faults.
AdaptiveConfig.demotion`) reuses the same migration machinery without
declaring a crash: a periodic health probe compares each live owning
process's observed-slowdown EWMA (fed by the scheduler) against the
median of its peers; a process exceeding ``DEMOTION_FACTOR`` times the
median for ``DEMOTION_PATIENCE`` consecutive probes is demoted - its
patches migrate to healthy survivors through the identical
checkpoint-restore + delivery-log-replay + send-re-arm path, while the
process itself stays alive to ack, forward in-flight streams, and
serve as a target of last resort.  Only the membership plane's
healthy-probe streak re-promotes a demoted process: with membership
off, a demotion lasts for the rest of the run.

Elastic membership (opt-in via :attr:`~repro.runtime.faults.
RecoveryConfig.membership`; DESIGN.md §14) replaces the
``DETECTION_DELAY`` oracle with virtual-time heartbeat failure detection: every heartbeat
interval the recovery layer probes each live process on the control
plane and sweeps for silence; a process unheard-from past its adaptive
suspicion timeout (a per-process Jacobson/Karn
:class:`~repro.runtime.transport.RttEstimator` over probe reply times)
is *suspected* - fenced behind a bumped incarnation and drained
through the failover path.  A truly dead suspect fails over; a
falsely-suspected straggler keeps replying, rejoins after a healthy
probe streak, and pulls patches back under a bounded rebalance budget.
Planned restarts (``CrashFault.restart_after``) announce a new
incarnation and catch up via snapshot state transfer + delivery-log
anti-entropy before rebalancing.  Demoted processes re-promote through
the same healthy-probe streak.

Sits above every other runtime layer: it drives the router's owner
re-assignment, the transport's send re-arming, and the scheduler's
queue/run bookkeeping, and books its virtual costs on the master
timelines under the ``recovery`` breakdown category.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .._util import ReproError
from ..core.patch_program import ProgramState
from ..core.stream import ProgramId, Stream
from .faults import (
    CHECKPOINT_INTERVAL, DEMOTION_FACTOR, DEMOTION_INTERVAL, DEMOTION_MAX,
    DEMOTION_PATIENCE, DETECTION_DELAY, HEARTBEAT_INTERVAL, MAX_TIMEOUT,
    MIN_TIMEOUT, PROBE_COST, REBALANCE_BUDGET, REJOIN_PROBES,
    T_CHECKPOINT_FIXED, T_CHECKPOINT_PROGRAM, T_FAILOVER_PROGRAM,
    RecoveryConfig,
)
from .metrics import Breakdown, RunReport
from .router import Router
from .scheduler import RunState, Scheduler
from .simulator import KindRow, Simulator
from .transport import RttEstimator, Transport

__all__ = ["Checkpoint", "RecoveryManager"]


@dataclass
class Checkpoint:
    """One program's recovery point."""

    state: object  # PatchProgram.checkpoint(): alias-free, codec-ready
    inbox: list  # streams delivered but unconsumed at snapshot time
    pending: dict  # uid -> Stream: this program's un-acked sends


class RecoveryManager:
    """Incremental checkpoints + crash failover over the lower layers."""

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        transport: Transport,
        scheduler: Scheduler,
        rcfg: RecoveryConfig,
        report: RunReport,
        bd: Breakdown,
        st: RunState,
        slow: Callable[[int, float], float],
    ) -> None:
        self.sim = sim
        self.router = router
        self.transport = transport
        self.scheduler = scheduler
        self.rcfg = rcfg
        self.report = report
        self.bd = bd
        self.st = st
        self.slow = slow
        self.ckpt: dict[ProgramId, Checkpoint | None] = {
            pid: None for pid in st.pids
        }
        self.dlog: dict[ProgramId, list[Stream]] = {pid: [] for pid in st.pids}
        self.dirty: set[ProgramId] = set()  # changed since last snapshot
        self.crash_time: dict[int, float] = {}
        self.cascaded: set[int] = set()  # procs whose crash was cascade-induced
        self._strikes: dict[int, int] = {}  # proc -> consecutive flags
        # Elastic membership state (DESIGN.md §14; all inert when off).
        self.membership = rcfg.membership
        self._last_heard: dict[int, float] = {
            p: 0.0 for p in range(router.nprocs)
        }
        self._hb_rtt: dict[int, RttEstimator] = {}  # probe-reply estimators
        self._suspected: set[int] = set()  # currently-suspected procs
        self._probes: dict[int, int] = {}  # healthy-probe streaks
        self._undetected: set[int] = set()  # crashed, suspicion not yet fired
        self._pending_restart = 0  # restart events in flight
        scheduler.recovery = self  # completed runs mark themselves dirty

    def kinds(self) -> list[KindRow]:
        """The resilience plane's rows of the event-kind table.  The
        membership plane (DESIGN.md §14) is control traffic whose
        handlers gate on quiescence themselves: a heartbeat tick must
        keep running while an undetected crash or pending restart
        holds work."""
        return [
            KindRow("crash", self.on_crash, stale=self.inert),
            KindRow("failover", self.on_failover, progress=True),
            KindRow("ckpt", self.on_ckpt, stale=self.inert),
            KindRow("health", self.on_health, stale=self.inert),
            KindRow("hbeat", self.on_hbeat, control=True),
            KindRow("hback", self.on_hback, control=True),
            KindRow("restart", self.on_restart, control=True),
        ]

    def arm(self) -> None:
        """Schedule the first per-process checkpoint round (and the
        health probe, when degraded-mode demotion is on; and the first
        heartbeat tick, when elastic membership is on)."""
        for p in range(self.router.nprocs):
            self.sim.push(CHECKPOINT_INTERVAL, "ckpt", p)
        a = self.rcfg.adaptive
        if a is not None and a.demotion:
            self.sim.push(DEMOTION_INTERVAL, "health", None)
        if self.membership:
            self.sim.push(HEARTBEAT_INTERVAL, "hbeat", None)

    # -- bookkeeping hooks ---------------------------------------------------------

    def mark_dirty(self, pid: ProgramId) -> None:
        self.dirty.add(pid)

    def log_delivery(self, pid: ProgramId, s: Stream) -> None:
        """Record a delivery for replay if the owner crashes later."""
        self.dlog[pid].append(s)
        self.dirty.add(pid)

    def quiescent(self) -> bool:
        """True once the job is done: no outstanding progress events
        and no un-acked sends (crash/checkpoint events are then inert)."""
        return self.sim.live == 0 and not self.transport.pending

    def inert(self, proc: int | None, now: float) -> bool:
        """Filter a crash/checkpoint/health event that no longer
        matters: a double fault on one proc, or the job already done."""
        return proc in self.router.dead or self.quiescent()

    # -- durability (snapshot/restore) ---------------------------------------------

    def state_dict(self) -> dict:
        """Codec-ready recovery state.

        Checkpoints flatten to plain dicts (a ``pending`` dict's
        insertion order is the retransmit order and round-trips
        verbatim); delivery logs keep their append order; the
        membership-only ``dirty`` set is sorted.
        """
        return {
            "ckpt": {
                pid: (
                    None if ck is None else {
                        "state": ck.state,
                        "inbox": list(ck.inbox),
                        "pending": dict(ck.pending),
                    }
                )
                for pid, ck in self.ckpt.items()
            },
            "dlog": {pid: list(v) for pid, v in self.dlog.items()},
            "dirty": sorted(self.dirty),
            "crash_time": dict(self.crash_time),
            "cascaded": sorted(self.cascaded),
            "strikes": dict(self._strikes),
            "last_heard": dict(self._last_heard),
            "hb_rtt": {p: e.state() for p, e in self._hb_rtt.items()},
            "suspected": sorted(self._suspected),
            "probes": dict(self._probes),
            "undetected": sorted(self._undetected),
            "pending_restart": self._pending_restart,
        }

    def load_state_dict(self, d: dict) -> None:
        self.ckpt = {
            pid: (
                None if ck is None
                else Checkpoint(ck["state"], list(ck["inbox"]), dict(ck["pending"]))
            )
            for pid, ck in d["ckpt"].items()
        }
        self.dlog = {pid: list(v) for pid, v in d["dlog"].items()}
        self.dirty = set(d["dirty"])
        self.crash_time = {int(p): float(t) for p, t in d["crash_time"].items()}
        self.cascaded = set(d["cascaded"])
        self._strikes = {int(p): int(n) for p, n in d["strikes"].items()}
        self._last_heard = {
            int(p): float(t) for p, t in d.get("last_heard", {}).items()
        } or {p: 0.0 for p in range(self.router.nprocs)}
        self._hb_rtt = {
            int(p): RttEstimator.from_state(s)
            for p, s in d.get("hb_rtt", {}).items()
        }
        self._suspected = set(d.get("suspected", ()))
        self._probes = {int(p): int(n) for p, n in d.get("probes", {}).items()}
        self._undetected = set(d.get("undetected", ()))
        self._pending_restart = int(d.get("pending_restart", 0))

    # -- event handlers ------------------------------------------------------------

    def on_crash(self, proc: int, now: float) -> None:
        self.sim.note(now, "hb_crash", (proc,))
        self.router.mark_dead(proc)
        self.report.crashes += 1
        self.crash_time[proc] = now
        if len(self.router.dead) >= self.router.nprocs:
            raise ReproError("all processes crashed; no survivors")
        if not self.membership:
            # Workers of the dead process stop mid-run (their run_end
            # events are now stale); detection is modeled as a fixed
            # delay before survivors take over.
            self.sim.push(now + DETECTION_DELAY, "failover", proc)
        else:
            # No oracle: the crash is discovered only when the victim's
            # heartbeat replies stop arriving (missed-probe suspicion).
            self._undetected.add(proc)
        inj = self.transport.inj
        if proc in self.cascaded:
            self.report.cascade_crashes += 1
        elif inj is not None:
            # A planned flapping crash schedules its comeback (cascade
            # followers carry no fault object and never restart; the
            # lookup key (proc, time) is exact).  The pending count
            # keeps the heartbeat plane alive across the down window.
            ra = inj.plan.restart_delay(proc, now)
            if ra > 0:
                self._pending_restart += 1
                self.sim.push(now + ra, "restart", proc)
        if inj is not None:
            # Correlated failure: seeded survivors follow suit.
            dead = self.router.dead
            alive = [q for q in range(self.router.nprocs) if q not in dead]
            for q, t_q in inj.cascade_after(proc, alive, now):
                self.cascaded.add(q)
                self.sim.push(t_q, "crash", q)

    def on_failover(self, proc: int, now: float) -> None:
        moved = self.router.reassign(proc)
        install_end = self._migrate(moved, proc, now)
        self.report.failover_time += install_end - self.crash_time[proc]

    def _migrate(self, moved: list, src, now: float) -> float:
        """Install migrated programs at their new owners.

        The shared core of crash failover, degraded-mode demotion,
        rejoin state transfer and rebalance-back: bump each program's
        epoch (staling the lost/abandoned execution), restore it from
        its snapshot, replay the delivery log into its inbox, book the
        install cost, requeue it, and re-arm its checkpointed un-acked
        sends.  ``src`` is the migration source - one proc for a drain
        (failover/demotion/self-transfer), or a per-program dict for a
        multi-donor rebalance.  Returns the virtual time at which the
        last install completes.
        """
        st = self.st
        moved_set = set(moved)
        install_end = now
        for pid in moved:
            i = st.index[pid]
            new_p = self.router.proc_of[pid]
            st.epoch[i] += 1
            self.scheduler.drop(i)
            prog = st.progs[i]
            ck = self.ckpt[pid]
            if ck is None:
                prog.init()  # never checkpointed: restart fresh
            else:
                prog.restore(ck.state)
            st.inited[i] = True
            # Replay: checkpointed unconsumed inbox + everything
            # delivered since the snapshot.  The log is NOT cleared -
            # it belongs to the snapshot, and this formula must stay
            # valid for a second failover.
            base = list(ck.inbox) if ck is not None else []
            st.inbox[i] = base + list(self.dlog[pid])
            st.state[i] = ProgramState.ACTIVE
            self.sim.note(
                now, "hb_migrate",
                (str(pid), src[pid] if isinstance(src, dict) else src,
                 new_p, st.epoch[i]),
            )
            dur = T_FAILOVER_PROGRAM * self.slow(new_p, now)
            master = self.scheduler.masters[new_p]
            _, end = master.book(now, dur)
            self.bd.add(master.core, "recovery", dur)
            self.sim.push(end, "requeue", (pid, st.epoch[i]))
            install_end = max(install_end, end)
        self.transport.rearm_after_failover(moved_set, self.ckpt, now)
        return install_end

    def on_health(self, _data: None, now: float) -> None:
        """Periodic health probe: demote a persistently-slow live proc.

        Reads the scheduler's per-process slowdown EWMA.  A process
        whose EWMA exceeds ``DEMOTION_FACTOR`` times the median of all
        live owning processes collects a strike; ``DEMOTION_PATIENCE``
        consecutive strikes demote it (capped at ``DEMOTION_MAX``
        demotions per run, and never below two owning survivors).  Any
        probe that does not flag a process clears its strikes, so
        transient blips never trigger a migration.
        """
        ewma = self.scheduler.proc_slow_ewma
        candidates = [
            p for p in range(self.router.nprocs)
            if p not in self.router.dead
            and p not in self.router.demoted
            and self.router.owned[p]
        ]
        flagged = None
        if (
            len(candidates) >= 2
            and len(self.router.demoted) < DEMOTION_MAX
        ):
            med = sorted(ewma[p] for p in candidates)[len(candidates) // 2]
            worst = max(candidates, key=lambda p: (ewma[p], -p))
            if ewma[worst] > DEMOTION_FACTOR * med:
                flagged = worst
                self._strikes[worst] = self._strikes.get(worst, 0) + 1
                if self._strikes[worst] >= DEMOTION_PATIENCE:
                    self.demote(worst, now)
        for p in list(self._strikes):
            if p != flagged:
                del self._strikes[p]
        self.sim.push(now + DEMOTION_INTERVAL, "health", None)

    def demote(self, proc: int, now: float) -> None:
        """Rebalance ownership away from a slow-but-alive process.

        Reuses the crash-failover path end to end - epoch bump,
        checkpoint restore, delivery-log replay, send re-arming -
        without marking the process dead: it keeps acking and forwards
        any in-flight stream that still arrives at it.
        """
        self.sim.note(now, "hb_demote", (proc,))
        self.router.demote(proc)
        self.report.demotions += 1
        moved = self.router.reassign(proc)
        self._migrate(moved, proc, now)

    # -- elastic membership (heartbeats, suspicion, rejoin; DESIGN.md §14) ----------

    def _suspicion_timeout(self, p: int) -> float:
        """Adaptive silence bar for proc ``p``: one heartbeat period of
        tick slack plus the probe-reply RTO (estimator-driven once
        warmed up, the ``MIN_TIMEOUT`` floor before the first sample)."""
        est = self._hb_rtt.get(p)
        if est is not None and est.srtt is not None:
            rto = est.rto(MIN_TIMEOUT, MAX_TIMEOUT)
        else:
            rto = MIN_TIMEOUT
        return HEARTBEAT_INTERVAL + rto

    def on_hbeat(self, _data: None, now: float) -> None:
        """One heartbeat tick: probe every live proc, sweep for silence.

        Control-plane only - probes and replies never advance the
        makespan or count as progress.  The tick keeps re-arming while
        work remains *or* a crash is still undetected or a restart is
        in flight (quiescence can look true while a dead proc holds
        work); once the job is done the plane drains.
        """
        if (self.quiescent() and not self._undetected
                and self._pending_restart == 0):
            return  # job done and every crash accounted for: drain
        # An undetected crash keeps the plane alive even past tracker
        # quiescence: the dead proc may still hold programs whose state
        # never settled, and only a (detected) failover re-homes them.
        lat = self.transport.machine.latency_inter
        for p in range(self.router.nprocs):
            if p not in self.router.dead:
                # Reply delay = wire latency + the rank's response cost,
                # scaled by any active straggler window (deterministic:
                # no rng draw, so fault-plan draws are unperturbed).
                delay = lat + PROBE_COST * self.slow(p, now)
                self.report.heartbeats += 1
                self.sim.push(now + delay, "hback", (p, now))
            if p in self._suspected or p in self.router.fenced:
                continue
            if now - self._last_heard[p] > self._suspicion_timeout(p):
                self._suspect(p, now)
        self.sim.push(now + HEARTBEAT_INTERVAL, "hbeat", None)

    def _suspect(self, p: int, now: float) -> None:
        """Silence past the timeout: fence ``p`` and drain its patches.

        A truly dead suspect fails over now (this is the detection the
        oracle used to fake); a falsely-suspected straggler is drained
        through the identical path - safe because it rejoins once its
        probes come back healthy.
        """
        self._suspected.add(p)
        self.report.suspicions += 1
        self.sim.note(now, "hb_suspect", (p, self.router.inc[p]))
        self.router.fence(p)
        if p in self.router.dead:
            self._undetected.discard(p)
            self.sim.push(now, "failover", p)
        else:
            self.report.false_suspicions += 1
            self._probes[p] = 0
            moved = self.router.reassign(p)
            self._migrate(moved, p, now)

    def on_hback(self, data: tuple, now: float) -> None:
        """A probe reply: feed the estimator, advance rejoin streaks."""
        p, sent_at = data
        self._last_heard[p] = now
        r = now - sent_at
        est = self._hb_rtt.get(p)
        if est is None:
            est = self._hb_rtt[p] = RttEstimator()
        est.sample(r)
        if self.quiescent():
            return  # job finished: keep liveness fresh, skip rejoins
        if p in self.router.dead:
            return  # died after replying; the silence will out
        if p in self.router.fenced or p in self.router.demoted:
            self._probes[p] = (
                self._probes.get(p, 0) + 1 if r <= MIN_TIMEOUT else 0
            )
            if self._probes[p] >= REJOIN_PROBES:
                if p in self.router.fenced:
                    self._rejoin(p, now)
                else:
                    self._promote(p, now)

    def _rejoin(self, p: int, now: float) -> None:
        """Re-admit ``p`` under a new incarnation.

        Order matters for the happens-before invariants: the state
        transfer (snapshot restore + delivery-log anti-entropy for
        every program still resident) completes before the rejoin is
        recorded, and only then are patches rebalanced back.
        """
        inc = self.router.announce(p)
        own = sorted(self.router.owned[p])
        self.sim.note(now, "hb_xfer", (p, inc, len(own)))
        if own:
            self._migrate(own, p, now)
        self.sim.note(now, "hb_rejoin", (p, inc))
        self.report.rejoins += 1
        self._suspected.discard(p)
        self._probes.pop(p, None)
        self._last_heard[p] = now
        self._rebalance(p, now)

    def _promote(self, p: int, now: float) -> None:
        """Reverse a demotion after a healthy probe streak."""
        self.sim.note(now, "hb_promote", (p,))
        self.router.promote(p)
        self.report.promotions += 1
        self._probes.pop(p, None)
        self._strikes.pop(p, None)
        self._rebalance(p, now)

    def _rebalance(self, p: int, now: float) -> None:
        """Pull patches back to a re-admitted rank (bounded budget)."""
        moved, srcs = self.router.rebalance_to(p, REBALANCE_BUDGET)
        if moved:
            self.report.rebalanced_patches += len({pid.patch for pid in moved})
            self._migrate(moved, srcs, now)

    def on_restart(self, p: int, now: float) -> None:
        """A planned rank restart: announce a new incarnation, catch up
        via state transfer, rebalance back."""
        self._pending_restart -= 1
        if not self.membership:
            # Oracle path: there is no rejoin protocol - the failover
            # already rehomed the proc's work for good, so a planned
            # restart is absorbed as a no-op.
            return
        if p not in self.router.dead or self.quiescent():
            return  # already recovered another way, or the job is done
        self.report.restarts += 1
        self.sim.note(now, "hb_restart", (p,))
        self._undetected.discard(p)
        self.scheduler.revive(p)
        self._rejoin(p, now)

    def on_ckpt(self, p: int, now: float) -> None:
        """One process's periodic incremental checkpoint round."""
        # Incremental: only snapshot programs that ran or received
        # streams since their last snapshot - a quiet program's
        # existing recovery point is still exact, so checkpoint cost
        # tracks activity, not residency.
        st = self.st
        own = [
            pid for pid in self.router.owned[p]
            if pid in self.dirty
            and st.index[pid] not in self.scheduler.running
            and st.inited[st.index[pid]]
        ]
        if own:
            dur = (
                T_CHECKPOINT_FIXED + len(own) * T_CHECKPOINT_PROGRAM
            ) * self.slow(p, now)
            master = self.scheduler.masters[p]
            _, end = master.book(now, dur)
            self.bd.add(master.core, "recovery", dur)
            self.sim.observe(end)
            for pid in own:
                i = st.index[pid]
                self.ckpt[pid] = Checkpoint(
                    st.progs[i].checkpoint(),
                    list(st.inbox[i]),
                    self.transport.pending_of(pid),
                )
                self.dlog[pid] = []
                self.dirty.discard(pid)
                self.report.checkpoints += 1
        self.sim.push(now + CHECKPOINT_INTERVAL, "ckpt", p)
