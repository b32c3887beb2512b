"""Runtime metrics: the Fig. 16 time-breakdown accounting.

Every core (worker or master) accumulates busy virtual-seconds by
category; idle time is derived from the run makespan.  The report can
be printed in the layout of the paper's Fig. 16: average seconds per
core, stacked by category.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


from .._util import ReproError
from .costmodel import CATEGORIES

__all__ = ["Breakdown", "DeadlineExceeded", "RunReport", "trace_fields"]


#: Which runtime layer owns each event kind (perf_summary grouping).
_EVENT_LAYER = {
    "run_start": "scheduler",
    "run_end": "scheduler",
    "requeue": "scheduler",
    "msg_arrive": "transport",
    "deliver": "transport",
    "ack": "transport",
    "nack": "transport",
    "timer": "transport",
    "crash": "recovery",
    "failover": "recovery",
    "ckpt": "recovery",
    "health": "recovery",
    "hbeat": "recovery",
    "hback": "recovery",
    "restart": "recovery",
}


class Breakdown:
    """Busy-time accumulator over a set of cores."""

    def __init__(self):
        self.by_category: dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self.core_busy: dict[tuple, float] = {}

    def add(self, core: tuple, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative time")
        self.by_category[category] = (
            self.by_category.get(category, 0.0) + seconds
        )
        self.core_busy[core] = self.core_busy.get(core, 0.0) + seconds

    def add_run(self, core: tuple, kernel: float, graph_op: float,
                pack: float, sched: float) -> None:
        """Fused hot-path form of four :meth:`add` calls for one run.

        Per-category accumulation is identical to four ``add`` calls
        (the four categories are seeded, so they are indexed directly);
        the per-core busy total folds the four parts in one update.
        """
        by = self.by_category
        by["kernel"] += kernel
        by["graph_op"] += graph_op
        by["pack"] += pack
        by["sched"] += sched
        cb = self.core_busy
        # Fold the parts one at a time: the identical left-to-right
        # float sequence as four separate ``add`` calls.
        cb[core] = cb.get(core, 0.0) + kernel + graph_op + pack + sched

    def finalize_idle(self, makespan: float, cores: list[tuple]) -> None:
        """Charge (makespan - busy) of every core to the idle category."""
        idle = 0.0
        for core in cores:
            idle += max(0.0, makespan - self.core_busy.get(core, 0.0))
        self.by_category["idle"] = idle

    def total(self) -> float:
        return sum(self.by_category.values())

    def fractions(self) -> dict[str, float]:
        t = self.total()
        if t <= 0:
            return {c: 0.0 for c in self.by_category}
        return {c: v / t for c, v in self.by_category.items()}

    # -- durability (snapshot/restore) -----------------------------------

    def state_dict(self) -> dict:
        """Codec-ready accumulator state (insertion order preserved -
        it decides the left-to-right float folds of later adds)."""
        return {
            "by_category": dict(self.by_category),
            "core_busy": dict(self.core_busy),
        }

    def load_state_dict(self, d: dict) -> None:
        self.by_category = dict(d["by_category"])
        self.core_busy = dict(d["core_busy"])


class DeadlineExceeded(ReproError):
    """A run overran its virtual-time budget and was cancelled.

    Raised by :meth:`DataDrivenRuntime.run` when a ``deadline`` was
    given and the simulated clock passed it: the event loop stops at
    the first event beyond the budget, finalizes the partial
    :class:`RunReport` (so the consumed slice is accounted) and
    unwinds.  The job layer above uses :attr:`report` to reclaim the
    cluster slice and attach the partial accounting to the failure;
    nothing of the run survives the exception - a cancelled run holds
    no global state.
    """

    def __init__(self, deadline: float, now: float, report: RunReport):
        self.deadline = deadline
        self.now = now  # virtual time of the first event past the budget
        self.report = report  # partial accounting up to the cancellation
        super().__init__(
            f"run cancelled: virtual time reached {now:.6f}s, past its "
            f"budget of {deadline:.6f}s ({report.events} events processed)"
        )


@dataclass
class RunReport:
    """Outcome of one DES run."""

    makespan: float
    breakdown: Breakdown
    total_cores: int
    executions: int = 0
    local_streams: int = 0
    messages: int = 0
    message_bytes: int = 0
    stream_items: int = 0  # payload items across local + remote streams
    vertices_solved: int = 0
    events: int = 0
    termination_hops: int = 0
    termination_time: float = 0.0

    # -- hot-path performance accounting (perf_summary) -----------------
    #: Host seconds of the event loop.  Stamped by the *caller* (the
    #: bench harness), never inside src/repro: the simulation itself is
    #: a pure function of (mesh, partition, seed) and must not read the
    #: host clock (lint rule DET001).  0.0 = not measured.
    wall_time: float = 0.0
    peak_heap: int = 0  # high-water event-heap occupancy
    #: Events processed by kind (from ``Simulator.event_counts``).
    event_counts: dict = field(default_factory=dict)

    #: Structured event trace (populated when the runtime is built with
    #: ``trace=True``): one TraceEvent per processed simulator event.
    trace_events: list = field(default_factory=list)

    #: Out-of-band happens-before records (``hb_*`` notes; also only
    #: with ``trace=True``), kept separate from :attr:`trace_events` so
    #: the per-event trace and its Chrome export stay 1:1 with
    #: :attr:`events`.  Consumed by :func:`repro.analysis.hb.check_report`.
    hb_events: list = field(default_factory=list)

    # -- fault & recovery counters (all zero on reliable runs) ----------
    drops: int = 0  # remote messages lost by fault injection
    duplicates: int = 0  # remote messages duplicated in flight
    retries: int = 0  # retransmissions after ack timeout
    timeouts: int = 0  # ack-timer expiries on unacked messages
    reexecutions: int = 0  # runs of programs in a post-failover epoch
    checkpoints: int = 0  # program snapshots taken
    crashes: int = 0  # processes lost (ignoring post-quiescence crashes)
    failover_time: float = 0.0  # virtual time from crash to re-install
    partition_drops: int = 0  # messages black-holed by a link partition
    corruptions: int = 0  # payloads bit-flipped in flight
    nacks: int = 0  # checksum-mismatch rejections (fast retransmit)
    cascade_crashes: int = 0  # crashes induced by a cascading CrashFault
    sanitizer_checks: int = 0  # hb records the online checker consumed (sanitize=True)

    # -- adaptive-resilience counters (all zero when AdaptiveConfig off) --
    rtt_samples: int = 0  # clean (Karn-admissible) RTT measurements
    demotions: int = 0  # slow-but-alive procs rebalanced away
    forwards: int = 0  # in-flight messages forwarded to a program's new owner

    # -- durability counters (zero when snapshotting is off) -------------
    snapshots: int = 0  # crash-consistent runtime snapshots written
    snapshot_bytes: int = 0  # total bytes published to snapshot files

    # -- elastic-membership counters (zero when membership is off) --------
    heartbeats: int = 0  # probe replies scheduled by the heartbeat plane
    suspicions: int = 0  # procs suspected after a missed-probe timeout
    false_suspicions: int = 0  # suspicions of slow-but-alive stragglers
    fenced_messages: int = 0  # arrivals rejected as a stale incarnation
    restarts: int = 0  # planned rank restarts that came back
    rejoins: int = 0  # ranks re-admitted (restart or cleared suspicion)
    promotions: int = 0  # demotions reversed after healthy probes
    rebalanced_patches: int = 0  # patches pulled back to rejoined ranks

    def overhead_fraction(self) -> float:
        """graph-op + pack/unpack share of total core time (Fig. 16's
        'overhead introduced by JSweep')."""
        f = self.breakdown.fractions()
        return f["graph_op"] + f["pack"] + f["unpack"] + f["sched"]

    def idle_fraction(self) -> float:
        return self.breakdown.fractions()["idle"]

    def comm_fraction(self) -> float:
        return self.breakdown.fractions()["comm"]

    def recovery_fraction(self) -> float:
        """Checkpoint + failover share of total core time."""
        return self.breakdown.fractions()["recovery"]

    def fault_summary(self) -> dict[str, float]:
        """The resilience counters in one dict (benchmark reporting)."""
        return {
            "drops": self.drops,
            "duplicates": self.duplicates,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "reexecutions": self.reexecutions,
            "checkpoints": self.checkpoints,
            "crashes": self.crashes,
            "failover_time": self.failover_time,
            "partition_drops": self.partition_drops,
            "corruptions": self.corruptions,
            "nacks": self.nacks,
            "cascade_crashes": self.cascade_crashes,
            "recovery_time": self.breakdown.by_category.get("recovery", 0.0),
        }

    def adaptive_summary(self) -> dict[str, float]:
        """The adaptive-resilience counters in one dict."""
        return {
            "rtt_samples": self.rtt_samples,
            "demotions": self.demotions,
            "forwards": self.forwards,
        }

    def membership_summary(self) -> dict[str, float]:
        """The elastic-membership counters in one dict (DESIGN.md §14)."""
        return {
            "heartbeats": self.heartbeats,
            "suspicions": self.suspicions,
            "false_suspicions": self.false_suspicions,
            "fenced_messages": self.fenced_messages,
            "restarts": self.restarts,
            "rejoins": self.rejoins,
            "promotions": self.promotions,
            "rebalanced_patches": self.rebalanced_patches,
        }

    def perf_summary(self) -> dict:
        """Hot-path performance view of the run (a first-class artifact).

        Events per host-second, peak event-heap occupancy, and event
        counts grouped by owning runtime layer.  ``events_per_sec`` is
        0.0 unless the caller stamped :attr:`wall_time` around the run.
        """
        per_layer: dict[str, int] = {}
        for kind, n in self.event_counts.items():
            layer = _EVENT_LAYER.get(kind, "other")
            per_layer[layer] = per_layer.get(layer, 0) + n
        return {
            "events": self.events,
            "wall_time_s": self.wall_time,
            "events_per_sec": (
                self.events / self.wall_time if self.wall_time > 0 else 0.0
            ),
            "peak_heap": self.peak_heap,
            "event_counts": dict(self.event_counts),
            "per_layer_events": per_layer,
        }

    def avg_seconds_per_core(self) -> dict[str, float]:
        """Fig. 16's y-axis: average time per core, by category.

        A degenerate report (zero cores: an admission-rejected or
        never-composed run) averages to zero rather than dividing by
        zero.
        """
        if self.total_cores <= 0:
            return {c: 0.0 for c in self.breakdown.by_category}
        return {
            c: v / self.total_cores
            for c, v in self.breakdown.by_category.items()
        }

    # -- durability (snapshot/restore) -----------------------------------

    #: Fields excluded from the snapshot stream: the breakdown nests its
    #: own state dict; event counts are re-stamped at finish from the
    #: simulator's (persisted) pop counters; traces are incompatible
    #: with snapshotting (the engine rejects the combination).
    _SKIP_STATE = ("breakdown", "trace_events", "hb_events", "event_counts")

    def state_dict(self) -> dict:
        d = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in self._SKIP_STATE
        }
        d["breakdown"] = self.breakdown.state_dict()
        return d

    def load_state_dict(self, d: dict) -> None:
        for f in fields(self):
            if f.name not in self._SKIP_STATE:
                setattr(self, f.name, d[f.name])
        self.breakdown.load_state_dict(d["breakdown"])

    def format_breakdown(self, label: str = "") -> str:
        rows = self.avg_seconds_per_core()
        parts = [f"{label} makespan={self.makespan:.4f}s"]
        for c in CATEGORIES:
            parts.append(f"  {c:>12}: {rows[c]:.4f}s ({self.breakdown.fractions()[c] * 100:5.1f}%)")
        return "\n".join(parts)

    def to_chrome_trace(self) -> dict:
        """Chrome-trace-format view of :attr:`trace_events`.

        Loadable in ``chrome://tracing`` / Perfetto.  Program runs
        become begin/end duration slices on their worker-core track
        (``run_start`` fires at dispatch, so a slice includes any wait
        for the booked core; a crash can leave a dangling begin, which
        viewers extend to the end of the trace).  All other events are
        thread-scoped instants.  Timestamps are virtual microseconds.
        """
        evs = []
        for te in self.trace_events:
            tid = "/".join(str(c) for c in te.core) if te.core else "events"
            ev = {
                "name": te.program if te.kind in ("run_start", "run_end")
                and te.program else te.kind,
                "ph": {"run_start": "B", "run_end": "E"}.get(te.kind, "i"),
                "ts": te.time * 1e6,
                "pid": te.proc if te.proc is not None else 0,
                "tid": tid,
            }
            if ev["ph"] == "i":
                ev["s"] = "t"
                ev["args"] = {"kind": te.kind}
                if te.program is not None:
                    ev["args"]["program"] = te.program
            evs.append(ev)
        return {"traceEvents": evs, "displayTimeUnit": "ms"}


def trace_fields(kind: str, data, pids=None) -> tuple:
    """(proc, core, program) of one runtime event, for the structured
    trace (the engine passes this to the simulator's trace hook).

    ``pids`` maps the dense program indices carried by hot-path event
    payloads (run_start/run_end/deliver) back to their ProgramId, so
    trace labels keep the stable ``(patch,task)`` form regardless of
    the interning.  Requeue payloads carry the ProgramId itself.
    """
    if kind in ("run_start", "run_end"):
        i = data[2]
        return data[0], ("w", data[0], data[1]), str(pids[i] if pids else i)
    if kind == "msg_arrive":
        return data[0], None, str(data[1].dst)
    if kind == "deliver":
        i = data[0]
        return None, None, str(pids[i] if pids else i)
    if kind == "requeue":
        return None, None, str(data[0])
    if kind in ("crash", "failover", "ckpt", "restart"):
        return data, None, None
    if kind == "hback":
        return data[0], None, None
    return None, None, None  # ack, nack, timer, hbeat, health
