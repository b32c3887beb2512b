"""Fault injection and recovery configuration for the DES cluster.

The paper's runtime targets 76,800 cores, a scale where node failures,
stragglers and lost messages are the norm rather than the exception.
This module turns the DES from a benchmark harness into a robustness
testbed: a :class:`FaultPlan` describes *what goes wrong* (fail-stop
process crashes at virtual times - optionally cascading to a seeded
subset of surviving neighbours - transient straggler windows, timed
directed network partitions, message drop/duplication/corruption
probabilities), a :class:`FaultInjector` realizes the plan
deterministically from a seed, and a :class:`RecoveryConfig` arms
the runtime's countermeasures (per-message acks with timeout/backoff
retransmission, per-stream checksums with NACK-driven retransmit,
periodic lightweight checkpoints, crash detection and dynamic owner
re-assignment, and the no-progress liveness watchdog).  Their tuning
values have one value each and are the named module constants below.

Everything is expressed in *virtual* seconds of the simulated cluster,
and every random draw comes from one seeded generator consumed in
deterministic event order - two runs with the same plan and seed are
bit-identical, which is what makes fault scenarios regression-testable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .._util import ReproError

__all__ = [
    "CrashFault",
    "StragglerWindow",
    "LinkPartition",
    "FaultPlan",
    "FaultInjector",
    "AdaptiveConfig",
    "RecoveryConfig",
]


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop crash of one process at a virtual time.

    The process stops executing, its in-flight receives are lost, and
    its patches are re-assigned to survivors by the recovery protocol.
    A crash scheduled after the run has quiesced is ignored (the job
    finished before the fault).

    A crash can *cascade* (correlated failure: a rack power event, a
    shared-switch loss): each surviving process independently follows
    the victim with probability ``cascade``, at a seeded time within
    ``cascade_window`` of the original crash, up to ``cascade_max``
    followers.  Cascaded crashes do not themselves cascade further.

    ``restart_after`` models node churn rather than permanent loss:
    when positive, the process comes back ``restart_after`` virtual
    seconds after the crash, announces itself with a bumped incarnation
    number and rejoins the run (snapshot state transfer plus
    delivery-log anti-entropy; DESIGN.md §14).  ``0`` keeps the
    fail-stop-forever semantics of PRs 1-8.  Cascade followers never
    restart (they carry no fault object).
    """

    proc: int
    time: float
    cascade: float = 0.0  # per-survivor follow probability
    cascade_window: float = 0.0  # followers crash within (time, time + window]
    cascade_max: int = 0  # hard cap on followers (bounds total loss)
    restart_after: float = 0.0  # node comes back after this delay; 0 = never

    def __post_init__(self):
        if self.proc < 0:
            raise ReproError("crash proc must be non-negative")
        # ``not (x >= 0)`` also refuses NaN, which every ``< 0`` test
        # lets through: a NaN crash time hangs the run, and a NaN
        # restart_after silently never restarts.  An infinite time is
        # a crash that never fires (ignored like any post-quiescence
        # crash); an infinite delay or window is refused.
        if not (self.time >= 0):
            raise ReproError(
                f"crash time must be non-negative; got {self.time!r}"
            )
        if not (0.0 <= self.cascade <= 1.0):
            raise ReproError("cascade probability must be in [0, 1]")
        if not (math.isfinite(self.cascade_window) and self.cascade_window >= 0):
            raise ReproError(
                "cascade_window must be finite and non-negative; "
                f"got {self.cascade_window!r}"
            )
        if self.cascade > 0 and self.cascade_window <= 0:
            raise ReproError(
                "a cascading crash needs a positive cascade_window"
            )
        if self.cascade_max < 0:
            raise ReproError("cascade_max must be non-negative")
        if not (math.isfinite(self.restart_after) and self.restart_after >= 0):
            raise ReproError(
                "restart_after must be finite and non-negative; "
                f"got {self.restart_after!r}"
            )

    def cascades(self) -> bool:
        return self.cascade > 0 and self.cascade_max > 0

    def restarts(self) -> bool:
        return self.restart_after > 0


@dataclass(frozen=True)
class StragglerWindow:
    """Transient slowdown of one process: every virtual-time cost booked
    on its cores during [start, end) is multiplied by ``factor``.

    Overlapping windows on one process *multiply* (two independent
    slowdowns compound), pinned down by ``FaultInjector.slowdown`` tests.
    """

    proc: int
    start: float
    end: float
    factor: float

    def __post_init__(self):
        if self.proc < 0:
            raise ReproError("straggler proc must be non-negative")
        if not (0 <= self.start < self.end):
            raise ReproError("straggler window must satisfy 0 <= start < end")
        if not (math.isfinite(self.factor) and self.factor >= 1.0):
            raise ReproError("straggler factor must be >= 1")


@dataclass(frozen=True)
class LinkPartition:
    """Timed directed network partition of one process-pair link.

    Every message (data, ack or nack) put on the ``src -> dst`` wire
    during [start, end) is silently black-holed: the sender gets no
    failure signal and recovers only through ack-timeout retransmission
    once the partition heals.  ``end`` may be ``math.inf`` for a
    partition that never heals (the canonical unrecoverable-stall
    scenario caught by the liveness watchdog).  Cut both directions by
    listing both ``(src, dst)`` and ``(dst, src)``.
    """

    src: int
    dst: int
    start: float
    end: float

    def __post_init__(self):
        if self.src < 0 or self.dst < 0:
            raise ReproError("partition procs must be non-negative")
        if self.src == self.dst:
            raise ReproError("partition must cut a link between two "
                             "distinct processes")
        if not (0 <= self.start < self.end):
            raise ReproError("partition window must satisfy 0 <= start < end")

    @property
    def heals(self) -> bool:
        return math.isfinite(self.end)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded description of the faults of one run."""

    crashes: tuple = ()
    stragglers: tuple = ()
    partitions: tuple = ()
    p_drop: float = 0.0  # per remote message (data and acks)
    p_duplicate: float = 0.0  # per remote data message
    p_corrupt: float = 0.0  # per remote data message (in-flight bit flip)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if not (0.0 <= self.p_drop < 1.0):
            raise ReproError("p_drop must be in [0, 1)")
        if not (0.0 <= self.p_duplicate < 1.0):
            raise ReproError("p_duplicate must be in [0, 1)")
        if not (0.0 <= self.p_corrupt < 1.0):
            raise ReproError("p_corrupt must be in [0, 1)")
        if self.p_drop + self.p_duplicate + self.p_corrupt >= 1.0:
            raise ReproError(
                "p_drop + p_duplicate + p_corrupt must stay below 1"
            )
        by_proc: dict[int, list] = {}
        for c in self.crashes:
            by_proc.setdefault(c.proc, []).append(c)
        for p, cs in by_proc.items():
            cs.sort(key=lambda c: c.time)
            for a, b in zip(cs, cs[1:]):
                if not a.restarts():
                    raise ReproError(
                        f"fault plan crashes proc {p} twice but the "
                        "earlier crash never restarts; a fail-stop "
                        "process dies at most once per incarnation - "
                        "give the earlier crash restart_after > 0 or "
                        "merge the duplicates"
                    )
                if b.time <= a.time + a.restart_after:
                    raise ReproError(
                        f"per-incarnation crashes of proc {p} must be "
                        f"strictly ordered: the next crash (t={b.time}) "
                        "must come after the previous restart "
                        f"(t={a.time} + {a.restart_after})"
                    )

    def needs_recovery(self) -> bool:
        """True when the plan can lose work or messages (stragglers
        alone only delay; they need no recovery machinery)."""
        return (
            bool(self.crashes)
            or bool(self.partitions)
            or self.p_drop > 0
            or self.p_duplicate > 0
            or self.p_corrupt > 0
        )

    def crashed_procs(self) -> set:
        return {c.proc for c in self.crashes}

    def permanent_procs(self) -> set:
        """Procs whose *last* planned crash never restarts (the
        fail-stop-forever victims; flapping nodes are excluded)."""
        last: dict[int, CrashFault] = {}
        for c in self.crashes:
            prev = last.get(c.proc)
            if prev is None or c.time > prev.time:
                last[c.proc] = c
        return {p for p, c in last.items() if not c.restarts()}

    def restart_delay(self, proc: int, time: float) -> float:
        """``restart_after`` of the planned crash ``(proc, time)``.

        0.0 when the crash never restarts or has no plan entry (a
        cascade follower) - the lookup key is exact because planned
        per-incarnation crashes carry distinct times.
        """
        for c in self.crashes:
            if c.proc == proc and c.time == time:
                return c.restart_after
        return 0.0

    def max_casualties(self) -> int:
        """Upper bound on processes the plan can kill (crashes plus
        cascade caps); the dynamic cascade draws never exceed it."""
        return len(self.crashes) + sum(
            c.cascade_max for c in self.crashes if c.cascades()
        )

    def validate(self, nprocs: int, horizon: float | None = None) -> None:
        """Reject plans inconsistent with the layout.

        Whether the programs can survive the plan's crashes is checked
        by ``DataDrivenRuntime._compose`` (every armed migration needs
        resilient programs).  ``horizon``, when given, is the run's
        armed watchdog horizon: a straggler or partition window that
        only *starts* at or beyond it is almost certainly a
        misconfigured plan - the run either quiesces or is declared
        stalled before the fault ever fires, so the scenario silently
        tests nothing.  Such windows draw a :class:`UserWarning` (not
        an error: a long run that keeps progressing past the horizon
        can still legitimately reach them).
        """
        for w in self.stragglers:
            if w.proc >= nprocs:
                raise ReproError(
                    f"straggler window targets proc {w.proc} but the "
                    f"layout has only {nprocs} processes"
                )
            if horizon is not None and horizon > 0 and w.start >= horizon:
                warnings.warn(
                    f"straggler window on proc {w.proc} starts at "
                    f"t={w.start:.6f}s, at or beyond the watchdog "
                    f"horizon ({horizon:.6f}s): if the run quiesces or "
                    "stalls first, the fault silently never fires",
                    stacklevel=2,
                )
        for cut in self.partitions:
            if cut.src >= nprocs or cut.dst >= nprocs:
                raise ReproError(
                    f"partition cuts link {cut.src}->{cut.dst} but the "
                    f"layout has only {nprocs} processes"
                )
            if horizon is not None and horizon > 0 and cut.start >= horizon:
                warnings.warn(
                    f"partition of link {cut.src}->{cut.dst} starts at "
                    f"t={cut.start:.6f}s, at or beyond the watchdog "
                    f"horizon ({horizon:.6f}s): if the run quiesces or "
                    "stalls first, the fault silently never fires",
                    stacklevel=2,
                )
        if self.crashes:
            crashed = self.crashed_procs()
            if any(c >= nprocs for c in crashed):
                raise ReproError(
                    f"crash targets proc {max(crashed)} but the layout "
                    f"has only {nprocs} processes"
                )
            # Flapping (restarting) victims come back; only the procs
            # whose last crash is permanent count towards total loss.
            if len(self.permanent_procs()) >= nprocs:
                raise ReproError(
                    "fault plan permanently crashes every process; total "
                    "loss is unrecoverable (no survivors to fail over to)"
                )


class FaultInjector:
    """Realizes a :class:`FaultPlan` with one seeded generator.

    Draws are consumed in the runtime's (deterministic) event order, so
    a fixed (plan, seed) pair injects the identical fault sequence on
    every run.  The injector is stateless apart from the generator.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._windows: dict[int, list[StragglerWindow]] = {}
        for w in plan.stragglers:
            self._windows.setdefault(w.proc, []).append(w)
        self._cuts: dict[tuple[int, int], list[LinkPartition]] = {}
        for cut in plan.partitions:
            self._cuts.setdefault((cut.src, cut.dst), []).append(cut)

    def slowdown(self, proc: int, now: float) -> float:
        """Multiplicative cost factor on ``proc`` at virtual time ``now``.

        Overlapping windows multiply (each window is an independent
        slowdown source); a window is half-open: active on [start, end).
        """
        f = 1.0
        for w in self._windows.get(proc, ()):
            if w.start <= now < w.end:
                f *= w.factor
        return f

    def link_cut(self, src: int, dst: int, now: float) -> bool:
        """Whether the directed ``src -> dst`` link is partitioned now."""
        for cut in self._cuts.get((src, dst), ()):
            if cut.start <= now < cut.end:
                return True
        return False

    def cut_window(self, src: int, dst: int, now: float) -> LinkPartition | None:
        """The active partition window on ``src -> dst``, if any (used
        by the stall watchdog to name lost edges)."""
        for cut in self._cuts.get((src, dst), ()):
            if cut.start <= now < cut.end:
                return cut
        return None

    def message_fate(self) -> str:
        """'deliver', 'drop', 'duplicate' or 'corrupt' for one remote
        data message."""
        p = self.plan
        if p.p_drop == 0.0 and p.p_duplicate == 0.0 and p.p_corrupt == 0.0:
            return "deliver"  # no draw: a zero-rate injector is inert
        u = self._rng.random()
        if u < p.p_drop:
            return "drop"
        if u < p.p_drop + p.p_duplicate:
            return "duplicate"
        if u < p.p_drop + p.p_duplicate + p.p_corrupt:
            return "corrupt"
        return "deliver"

    def corrupt_position(self, nbytes: int) -> tuple[int, int]:
        """Seeded (byte index, bit index) of one in-flight bit flip."""
        byte = int(self._rng.integers(0, max(1, nbytes)))
        bit = int(self._rng.integers(0, 8))
        return byte, bit

    def ack_dropped(self) -> bool:
        """Whether one ack control message is lost in transit."""
        if self.plan.p_drop == 0.0:
            return False
        return bool(self._rng.random() < self.plan.p_drop)

    # -- durability (snapshot/restore) ---------------------------------------------

    def state_dict(self) -> dict:
        """Codec-ready injector state: only the generator advances.

        The PCG64 state dict carries 128-bit integers; the snapshot
        codec's big-int path round-trips them exactly.
        """
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, d: dict) -> None:
        self._rng.bit_generator.state = d["rng"]

    def cascade_after(
        self, proc: int, alive: list, now: float
    ) -> list[tuple[int, float]]:
        """Cascade followers of the crash of ``proc``.

        Looks up the plan's fault for ``proc`` and delegates to
        :meth:`cascade_victims`; a crash with no plan entry (a cascaded
        crash) or a non-cascading entry follows nobody and consumes no
        randomness.
        """
        for c in self.plan.crashes:
            if c.proc == proc:
                return self.cascade_victims(c, alive, now)
        return []

    def cascade_victims(
        self, fault: CrashFault, alive: list, now: float
    ) -> list[tuple[int, float]]:
        """Seeded followers of a cascading crash: ``(proc, time)`` pairs.

        Draws one follow decision per survivor in deterministic (sorted)
        order, capped at ``cascade_max`` victims; each victim crashes at
        a seeded time within ``(now, now + cascade_window]``.  Cascaded
        crashes never cascade further (they carry no fault object).
        """
        if not fault.cascades():
            return []
        victims: list[tuple[int, float]] = []
        for q in sorted(alive):
            if q == fault.proc:
                continue
            if len(victims) >= fault.cascade_max:
                break
            if self._rng.random() < fault.cascade:
                delay = self._rng.random() * fault.cascade_window
                victims.append((q, now + delay))
        return victims


# -- resilience constants ----------------------------------------------------------
# Each tuning value of the recovery, adaptive and membership machinery
# has one value in use (DESIGN.md §7 tabulates them).

# retransmit
ACK_TIMEOUT = 120e-6  # s, first retransmit timeout of a fresh send
BACKOFF = 2.0  # timeout multiplier per retry
MAX_RTO = 10e-3  # s, cap on any backed-off or estimated timeout
MAX_RETRIES = 10  # retries per message; the next timeout raises
# adaptive RTO (Jacobson/Karn, RFC 6298 shape)
SRTT_GAIN = 0.125  # alpha: SRTT update weight
RTTVAR_GAIN = 0.25  # beta: RTTVAR update weight
RTO_K = 4.0  # RTO = SRTT + RTO_K * RTTVAR (also the suspicion timeout's K)
MIN_RTO = 20e-6  # s, estimated-RTO floor (spurious-retransmit guard)
# checkpoints
CHECKPOINT_INTERVAL = 200e-6  # s, per-process checkpoint period
T_CHECKPOINT_FIXED = 2.0e-6  # s, master cost per checkpoint event
T_CHECKPOINT_PROGRAM = 0.5e-6  # s, + per program snapshotted
# failover
DETECTION_DELAY = 100e-6  # s, crash -> failover start (membership off)
T_FAILOVER_PROGRAM = 5.0e-6  # s, master cost to install one migrant
# demotion
DEMOTION_INTERVAL = 250e-6  # s, health-check period
DEMOTION_FACTOR = 2.0  # slow = this multiple of the median slowdown
DEMOTION_PATIENCE = 2  # consecutive unhealthy checks to demote
DEMOTION_MAX = 1  # demotions per run
# membership
HEARTBEAT_INTERVAL = 60e-6  # s, probe period
MIN_TIMEOUT = 250e-6  # s, suspicion-timeout floor
MAX_TIMEOUT = 5e-3  # s, suspicion-timeout cap
PROBE_COST = 8e-6  # s, per-reply cost on the probed rank
REJOIN_PROBES = 2  # healthy-probe streak to rejoin / re-promote
REBALANCE_BUDGET = 8  # patches pulled back per rejoin


@dataclass(frozen=True)
class AdaptiveConfig:
    """Opt-in adaptive resilience features (all off by default).

    The paper's runtime has no adaptive resilience; these two switches
    are extensions of this reproduction, each kept because it moves a
    committed makespan (``BENCH_adaptive_resilience.json``, DESIGN.md
    §9).  Each is rng-neutral when off (the golden fingerprints are
    unchanged):

    * **adaptive RTO** - per-link Jacobson RTT estimation (SRTT/RTTVAR
      with Karn's rule: no sample from a retransmitted or
      failover-re-armed send) replacing the fixed ``ACK_TIMEOUT`` with
      ``clamp(SRTT + RTO_K * RTTVAR, MIN_RTO, MAX_RTO)``;
    * **demotion** - periodic health checks (``DEMOTION_*``) over
      per-process observed slowdown; a persistently-slow-but-alive
      process has its patches rebalanced away through the
      crash-failover path without being declared dead (it keeps
      routing/forwarding its in-flight traffic).  Requires resilient
      programs, like crash recovery.

    Every detection input is observed runtime behavior (RTT samples,
    booked durations), never the fault plan itself.
    """

    adaptive_rto: bool = False
    demotion: bool = False

    def __post_init__(self):
        for name in ("adaptive_rto", "demotion"):
            if not isinstance(getattr(self, name), bool):
                raise ReproError(
                    f"AdaptiveConfig.{name} must be a bool; "
                    f"got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class RecoveryConfig:
    """Switches of the runtime's fault-tolerance machinery.

    An armed config turns on per-message acks with retransmission,
    incremental checkpoints and crash failover, tuned by the module
    constants above.  Their virtual costs (``T_*``) are booked under
    the ``recovery`` breakdown category, so the overhead of resilience
    is visible in the Fig. 16-style accounting.

    ``watchdog_horizon`` arms the liveness watchdog: if retransmit
    timers are still circulating but no progress event has been
    processed for this many virtual seconds, the run raises a
    structured :class:`~repro.runtime.simulator.StallError` naming the
    blocked dependencies instead of spinning.  Must comfortably exceed
    any expected partition-heal window; 0 disables the watchdog.

    ``adaptive`` opts into the :class:`AdaptiveConfig` features.

    ``membership`` arms elastic membership (DESIGN.md §14): heartbeat
    failure detection, incarnation fencing and rank restart/rejoin.
    The recovery layer probes every process each ``HEARTBEAT_INTERVAL``
    on the control plane and retires the ``DETECTION_DELAY`` oracle: a
    crash is *discovered* only when the victim's probe replies stop
    arriving.  The suspicion timeout adapts per process through the
    transport's Jacobson/Karn
    :class:`~repro.runtime.transport.RttEstimator` - ``clamp(SRTT +
    RTO_K * RTTVAR, MIN_TIMEOUT, MAX_TIMEOUT)`` plus one heartbeat
    period of tick slack - so persistently slow ranks raise their own
    bar instead of flapping.  False suspicion is safe by construction:
    a suspected proc is *fenced* (incarnation pre-bumped, patches
    drained through the failover path) but keeps routing; when its
    probes come back healthy ``REJOIN_PROBES`` times in a row it
    rejoins with the new incarnation and pulls up to
    ``REBALANCE_BUDGET`` patches back.  Demoted procs re-promote
    through the same healthy-probe streak.  Every probe reply costs
    ``PROBE_COST`` on the probed rank (scaled by active straggler
    windows), which is what makes a hard straggler's replies late
    enough to suspect.  Detection reads observed behavior (probe reply
    times), never the fault plan; with membership off the machinery is
    event-free and draw-free, so golden fingerprints are unchanged.
    """

    watchdog_horizon: float = 20e-3  # no-progress stall horizon; 0 = off
    adaptive: AdaptiveConfig | None = None  # opt-in adaptive features
    membership: bool = False  # elastic membership (§14)

    def __post_init__(self):
        h = self.watchdog_horizon
        # A NaN horizon compares false against every clock and silently
        # disarms the watchdog; ``True`` would read as one second.
        if isinstance(h, bool) or not isinstance(h, Real) or not (h >= 0):
            raise ReproError(
                "watchdog_horizon must be a non-negative number of "
                f"seconds (0 = off); got {h!r}"
            )
        if self.membership and 0 < self.watchdog_horizon <= MAX_TIMEOUT:
            raise ReproError(
                "watchdog_horizon must exceed the membership suspicion "
                f"cap MAX_TIMEOUT={MAX_TIMEOUT}s: heartbeat detection "
                "needs room to fire before the run is declared stalled"
            )
