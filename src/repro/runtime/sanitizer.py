"""Invariant sanitizer: toggleable runtime self-checks (chaos harness).

Fault scenarios exercise rare interleavings (multi-failover races,
duplicate storms, partition-heal bursts) where a silent bookkeeping
bug would corrupt results long before any test notices.  The sanitizer
turns the runtime's core invariants into hard assertions, checked live
on every delivery, commit, booking and failover:

* **exactly-once delivery** - a stamped message uid is handed to a
  program at most once, only on a live process, and only on the
  destination program's current owner;
* **epoch-monotonic commits** - per program, workload commits never
  regress to an older epoch, and within the current epoch the
  remaining-workload counter never increases;
* **monotonic timelines** - every core's booked intervals have
  non-negative finite durations and non-decreasing end times;
* **failover consistency** - a rebuilt inbox (checkpoint + delivery
  log) contains no duplicate message uids, and the restored program's
  owner really is the failover target;
* **incarnation freshness** - with elastic membership armed, no stream
  stamped by a previous life of its sending process is ever delivered
  (the transport's fence must reject it first), and nothing is
  delivered on a fenced process;
* **end-to-end exactly-once per edge** - after the run, each resilient
  sweep program's applied remote-edge sets match the edge sets its
  upwind neighbours' graphs emit: nothing lost, nothing double-applied
  (checked from topology, independent of the delivery machinery).

All checks are O(1) per event (the final sweep is O(edges) once) and
off by default; the chaos campaign and the fault tests run with them
on.  A violation raises :class:`SanitizerError` naming the invariant.
"""

from __future__ import annotations

from ..core.stream import ProgramId, Stream
from .._util import ReproError
from .router import Router

__all__ = ["SanitizerError", "InvariantSanitizer"]


class SanitizerError(ReproError):
    """A runtime invariant was violated (always a bug, never a fault)."""


class InvariantSanitizer:
    """Live invariant checks wired through transport/scheduler/recovery."""

    def __init__(self, router: Router):
        self.router = router
        self._delivered: set[tuple] = set()  # uids handed to programs
        self._commit: dict[ProgramId, tuple[int, float]] = {}  # pid -> (epoch, rem)
        self._core_end: dict[tuple, float] = {}  # core -> last booked end
        self.checks = 0  # total assertions evaluated (reporting)

    # -- transport: delivery plane --------------------------------------------------

    def on_delivery(self, s: Stream, proc: int) -> None:
        """A stamped stream is about to be handed to its program."""
        self.checks += 1
        uid = s.uid
        if uid in self._delivered:
            raise SanitizerError(
                f"duplicate delivery of message {uid!r} to {s.dst!r}: "
                "exactly-once violated (dedup failed)"
            )
        if proc in self.router.dead:
            raise SanitizerError(
                f"message {uid!r} delivered on dead proc {proc}"
            )
        owner = self.router.proc_of[s.dst]
        if owner != proc:
            raise SanitizerError(
                f"message {uid!r} for {s.dst!r} delivered on proc {proc} "
                f"but the program's owner is proc {owner}"
            )
        if s.inc is not None:
            sp, si = s.inc
            if si < self.router.inc[sp]:
                raise SanitizerError(
                    f"message {uid!r} from a stale incarnation of proc "
                    f"{sp} (life {si} < current {self.router.inc[sp]}) "
                    "was delivered: the incarnation fence leaked"
                )
            if proc in self.router.fenced:
                raise SanitizerError(
                    f"message {uid!r} delivered on fenced proc {proc}"
                )
        self._delivered.add(uid)

    # -- scheduler: commit and booking planes ---------------------------------------

    def on_commit(self, pid: ProgramId, remaining: float, epoch: int) -> None:
        """A workload commit is being offered to the tracker."""
        self.checks += 1
        prev = self._commit.get(pid)
        if prev is not None:
            ep0, rem0 = prev
            if epoch < ep0:
                return  # stale-epoch commit: the tracker ignores it too
            if epoch == ep0 and remaining > rem0:
                raise SanitizerError(
                    f"workload of {pid!r} regressed within epoch {epoch}: "
                    f"remaining {rem0} -> {remaining}"
                )
        self._commit[pid] = (epoch, remaining)

    def on_booking(self, core: tuple, start: float, end: float) -> None:
        """A resource interval was booked on a core timeline."""
        self.checks += 1
        if not (0.0 <= start <= end and end < float("inf")):
            raise SanitizerError(
                f"core {core!r} booked a malformed interval "
                f"[{start}, {end}]"
            )
        last = self._core_end.get(core, 0.0)
        if end < last:
            raise SanitizerError(
                f"core {core!r} timeline went backwards: booked end "
                f"{end} after {last}"
            )
        self._core_end[core] = end

    # -- recovery: failover plane ---------------------------------------------------

    def on_failover(self, pid: ProgramId, inbox: list) -> None:
        """A migrated program's inbox was rebuilt from ckpt + dlog."""
        self.checks += 1
        seen: set[tuple] = set()
        for s in inbox:
            uid = s.uid
            if uid is None:
                continue
            if uid in seen:
                raise SanitizerError(
                    f"failover of {pid!r} rebuilt an inbox with "
                    f"duplicate message {uid!r}: checkpoint and delivery "
                    "log overlap"
                )
            seen.add(uid)
        if self.router.proc_of[pid] in self.router.dead:
            raise SanitizerError(
                f"failover installed {pid!r} on dead proc "
                f"{self.router.proc_of[pid]}"
            )

    # -- post-run: end-to-end edge accounting ---------------------------------------

    def check_final(self, progs: dict) -> None:
        """After quiescence: every resilient sweep program applied each
        remote in-edge exactly once, per its upwind neighbours' graphs.

        Topology-derived, so it catches lost or double-applied
        dependencies even when the delivery machinery's own books
        balance.  Programs without the resilient sweep surface are
        skipped.
        """
        for pid, prog in progs.items():
            if not getattr(prog, "resilient_input", False):
                continue
            graph = getattr(prog, "graph", None)
            if graph is None or not hasattr(graph, "dr_patch"):
                continue
            # Remote edge id = position in the graph's remote CSR.
            per_dst: dict[int, set[int]] = {}
            for eid, dp in enumerate(graph.dr_patch.tolist()):
                per_dst.setdefault(dp, set()).add(eid)
            for dp, eids in per_dst.items():
                self.checks += 1
                dst = progs.get(ProgramId(dp, pid.task))
                if dst is None or not hasattr(dst, "_applied"):
                    continue
                applied = dst._applied.get(pid.patch, set())
                missing = eids - applied
                extra = applied - eids
                if missing or extra:
                    raise SanitizerError(
                        f"edge accounting of {ProgramId(dp, pid.task)!r} "
                        f"from upwind {pid!r} broken: "
                        f"{len(missing)} edges never applied, "
                        f"{len(extra)} unknown edges applied"
                    )
