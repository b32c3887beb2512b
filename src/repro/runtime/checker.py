"""The run checker: one consumer of the runtime's ``hb_*`` note stream.

Every fact the runtime's correctness rests on is emitted once, as a
structured record through :meth:`repro.runtime.simulator.Simulator.note`,
and checked here.  The checker rebuilds causality with vector clocks
and verifies that every state transition is anchored by a
happens-before edge:

* a delivered message has a matching send, and each stamped uid is
  delivered at most once (``orphan-delivery`` / ``duplicate-delivery``);
* a workload commit in a post-failover epoch happens-after the
  migration that installed that epoch (``unanchored-epoch-commit`` /
  ``commit-not-after-migration``), and within one epoch a program's
  remaining workload never increases (``workload-regressed``);
* a migration happens-after the crash, demotion or suspicion of the
  process it drains - or targets a process whose rejoin justifies
  pulling work from healthy donors (``migration-without-cause``);
* a rejoin happens-after the state transfer that caught the process
  up, and every commit on a rejoined rank is causally anchored to
  that transfer - i.e. to the new incarnation, never the old life
  (``rejoin-without-transfer`` / ``commit-not-after-rejoin``);
* a restart announcement names a process that actually crashed
  (``restart-without-crash``);
* two same-epoch commits to one program from different processes are
  happens-before ordered (``concurrent-commit``).

**Online mode** (``HbChecker(run=(router, st))``, armed by
``DataDrivenRuntime(sanitize=True)``) also checks each record against
the live run: a delivery lands on a live, unfenced owner and carries
no stale incarnation; a rebuilt inbox holds no duplicate uid and its
new owner is alive; at :meth:`HbChecker.finish` every resilient sweep
program applied each upwind remote edge exactly once.  Online any
violation raises :class:`SanitizerError`; offline it is collected.

The happens-before model: every simulated process is a node, plus one
``"ctl"`` node for the failure-control plane (crash detection,
failover orchestration, health probes).  Each record ticks its node's
clock component; ``hb_recv`` joins the sender's clock at send time,
and ``hb_requeue`` joins the control plane's clock at migration time.
Record vocabulary (all fields JSON-scalar; bracketed trailing
fields are optional, so older traces still load)::

    hb_send     (wid, src_proc, dst_proc, uid)   physical copy launched
    hb_recv     (wid, proc, delivered, uid, [dsti, inc_proc, inc])
    hb_commit   (pid, proc, epoch, serial, [remaining])
    hb_crash    (proc,)                          crash detected   [ctl]
    hb_demote   (proc,)                          demotion decided [ctl]
    hb_migrate  (pid, old_proc, new_proc, epoch) inbox rebuilt    [ctl]
    hb_requeue  (pid, proc, epoch)               re-install done (optional:
                                                 the runtime folds this into
                                                 hb_migrate's eager join)
    hb_suspect  (proc, inc)                      fenced on missed beats [ctl]
    hb_restart  (proc,)                          crashed proc came back [ctl]
    hb_xfer     (proc, inc, nprogs)              state transfer begun   [ctl]
    hb_rejoin   (proc, inc)                      incarnation live again [ctl]
    hb_promote  (proc,)                          demotion reversed      [ctl]

``dsti`` is the destination program's dense index and ``(inc_proc,
inc)`` the sender's incarnation tag (None with membership off).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from .._util import ReproError
from ..core.stream import ProgramId

__all__ = ["CTL", "HbChecker", "HbRace", "SanitizerError"]

#: Node id of the failure-control plane in the vector clocks.
CTL = "ctl"

Clock = dict  # node -> int


def _leq(a: Clock, b: Clock) -> bool:
    """``a`` happens-before-or-equals ``b`` componentwise."""
    return all(v <= b.get(k, 0) for k, v in a.items())


class SanitizerError(ReproError):
    """A run invariant was violated (always a bug, never a fault)."""


@dataclass(frozen=True)
class HbRace:
    """One violation: a race, a broken anchor or a wrong value."""

    kind: str  # e.g. "concurrent-commit"
    time: float  # virtual time of the offending record
    subject: str  # what the race is about (program id, uid, ...)
    message: str  # full human diagnosis, names the offending commit

    def format(self) -> str:
        return f"[{self.kind}] t={self.time:.6g} {self.subject}: {self.message}"


@dataclass
class _Commit:
    pid: str
    proc: Any
    epoch: int
    serial: int
    time: float
    vc: Clock


class HbChecker:
    """Feed ``(time, kind, detail)`` records, then :meth:`finish`.

    ``run`` is the live ``(router, RunState)`` pair in online mode
    (violations raise :class:`SanitizerError`), None offline.
    """

    def __init__(self, run: tuple | None = None) -> None:
        self.run = run
        if run is not None:
            self._index = {str(pid): i for i, pid in enumerate(run[1].pids)}
        self._clocks: dict[Any, Clock] = {}
        self._sends: dict[Any, tuple[Clock, Any, float]] = {}
        self._delivered_uids: dict[Any, float] = {}
        #: pid -> (epoch, remaining) of the latest non-stale commit
        self._remaining: dict[str, tuple[int, Any]] = {}
        self._migrations: dict[tuple[str, int], tuple[Clock, float]] = {}
        self._failed_procs: set[Any] = set()  # crashed, demoted or suspected
        self._rejoined: set[Any] = set()  # rebalance targets (rejoin/promote)
        #: (proc, inc) -> (state-transfer clock, time)
        self._xfers: dict[tuple[Any, int], tuple[Clock, float]] = {}
        #: proc -> (transfer clock, time, inc) of the latest rejoin
        self._rejoin_anchor: dict[Any, tuple[Clock, float, int]] = {}
        #: (pid, epoch) -> {proc: last commit} for concurrency checks
        self._last_commit: dict[tuple[str, int], dict[Any, _Commit]] = {}
        self.races: list[HbRace] = []
        self.records = 0

    def _race(self, kind: str, t: float, subject: str, message: str) -> None:
        race = HbRace(kind, t, subject, message)
        if self.run is not None:
            raise SanitizerError(race.format())
        self.races.append(race)

    # -- clock plumbing -------------------------------------------------------------

    def _tick(self, node: Any) -> Clock:
        c = self._clocks.setdefault(node, {})
        c[node] = c.get(node, 0) + 1
        return c

    def _join(self, node: Any, other: Clock) -> None:
        c = self._clocks.setdefault(node, {})
        for k, v in other.items():
            if v > c.get(k, 0):
                c[k] = v

    def _snap(self, node: Any) -> Clock:
        return dict(self._clocks.get(node, {}))

    # -- record ingestion -----------------------------------------------------------

    def feed(self, time: float, kind: str, detail: tuple) -> None:
        handler = getattr(self, "_on_" + kind[3:], None) if kind.startswith(
            "hb_"
        ) else None
        if handler is None:
            return  # not an HB record: ignore
        self.records += 1
        handler(time, *detail)

    def observe(self, ev) -> None:
        """Note-hook entry: feed one :class:`TraceEvent` note."""
        self.feed(ev.time, ev.kind, ev.detail)

    def _on_send(self, t: float, wid, src_proc, dst_proc, uid=None) -> None:
        self._tick(src_proc)
        self._sends[wid] = (self._snap(src_proc), uid, t)

    def _on_recv(self, t: float, wid, proc, delivered, uid=None,
                 dsti=None, inc_proc=None, inc=None) -> None:
        self._tick(proc)
        sent = self._sends.get(wid)
        if sent is None:
            self._race(
                "orphan-delivery", t, f"wid={wid!r}",
                f"message copy {wid!r} processed on proc {proc} with no "
                "recorded send: the delivery is not anchored by any "
                "happens-before edge",
            )
        else:
            # Any physical arrival is a causal edge - even a copy the
            # receiver discards (duplicate, corrupted, forwarded on)
            # was read by ``proc``; ``delivered`` only gates the
            # exactly-once accounting below.
            self._join(proc, sent[0])
        if delivered and uid is not None:
            first = self._delivered_uids.get(uid)
            if first is not None:
                self._race(
                    "duplicate-delivery", t, f"uid={uid!r}",
                    f"uid {uid!r} delivered twice (first at t={first:.6g}, "
                    f"again on proc {proc}): exactly-once delivery broken",
                )
            else:
                self._delivered_uids[uid] = t
        if delivered and self.run is not None:
            r = self.run[0]
            what = f"message {uid!r} for {r.pids[dsti]!r}"
            if proc in r.dead:
                self._race("delivery-on-dead-proc", t, what, f"delivered on dead proc {proc}")
            if r.proc_idx[dsti] != proc:
                self._race("delivery-off-owner", t, what, f"delivered on proc {proc} "
                           f"but the program's owner is proc {r.proc_idx[dsti]}")
            if inc is not None and inc < r.inc[inc_proc]:
                self._race("stale-incarnation-delivery", t, what,
                           f"from a stale incarnation of proc {inc_proc} (life {inc} < "
                           f"current {r.inc[inc_proc]}) delivered: the fence leaked")
            if inc is not None and proc in r.fenced:
                self._race("delivery-on-fenced-proc", t, what, f"delivered on fenced proc {proc}")

    def _on_commit(self, t: float, pid, proc, epoch, serial,
                   remaining=None) -> None:
        self._tick(proc)
        vc = self._snap(proc)
        commit = _Commit(pid, proc, int(epoch), serial, t, vc)
        if remaining is not None:
            ep0, rem0 = self._remaining.get(pid, (commit.epoch, remaining))
            if commit.epoch == ep0 and remaining > rem0:
                self._race("workload-regressed", t, pid, f"workload regressed within "
                           f"epoch {epoch}: remaining {rem0} -> {remaining}")
            if commit.epoch >= ep0:  # stale epoch: the tracker ignores it too
                self._remaining[pid] = (commit.epoch, remaining)
        anchor = self._rejoin_anchor.get(proc)
        if anchor is not None and not _leq(anchor[0], vc):
            self._race(
                "commit-not-after-rejoin", t, pid,
                f"commit of {pid} on rejoined proc {proc} (serial "
                f"{serial}, t={t:.6g}) is concurrent with the state "
                f"transfer that installed incarnation {anchor[2]} "
                f"(t={anchor[1]:.6g}): the commit is anchored to the "
                "old life, not the new incarnation",
            )
        if commit.epoch > 0:
            mig = self._migrations.get((pid, commit.epoch))
            if mig is None:
                self._race(
                    "unanchored-epoch-commit", t, pid,
                    f"commit of {pid} on proc {proc} in epoch "
                    f"{commit.epoch} (serial {serial}) has no recorded "
                    "migration installing that epoch",
                )
            elif not _leq(mig[0], vc):
                self._race(
                    "commit-not-after-migration", t, pid,
                    f"commit of {pid} on proc {proc} in epoch "
                    f"{commit.epoch} (serial {serial}, t={t:.6g}) is "
                    "concurrent with the migration that installed epoch "
                    f"{commit.epoch} (t={mig[1]:.6g}): the committing "
                    "execution never observed the re-install",
                )
        peers = self._last_commit.setdefault((pid, commit.epoch), {})
        for other_proc, prev_commit in peers.items():
            if other_proc == proc:
                continue  # same node: trace order is happens-before
            if not _leq(prev_commit.vc, vc):
                self._race(
                    "concurrent-commit", t, pid,
                    f"commit of {pid} in epoch {commit.epoch} on proc "
                    f"{proc} (serial {serial}, t={t:.6g}) is concurrent "
                    f"with the commit on proc {prev_commit.proc} (serial "
                    f"{prev_commit.serial}, t={prev_commit.time:.6g}): "
                    "same-epoch writes to one program state with no "
                    "delivery edge between them",
                )
        peers[proc] = commit

    def _on_crash(self, t: float, proc) -> None:
        self._tick(CTL)
        self._failed_procs.add(proc)

    def _on_demote(self, t: float, proc) -> None:
        self._tick(CTL)
        self._failed_procs.add(proc)

    def _on_migrate(self, t: float, pid, old_proc, new_proc, epoch) -> None:
        self._tick(CTL)
        if (
            old_proc not in self._failed_procs
            and new_proc not in self._rejoined
        ):
            self._race(
                "migration-without-cause", t, pid,
                f"migration of {pid} from proc {old_proc} to proc "
                f"{new_proc} (epoch {epoch}) precedes any crash, "
                f"demotion or suspicion of proc {old_proc} and proc "
                f"{new_proc} never rejoined",
            )
        if self.run is not None:
            router, st = self.run
            if new_proc in router.dead:
                self._race("migration-to-dead-proc", t, pid, f"installed on dead proc {new_proc}")
            uids = Counter(s.uid for s in st.inbox[self._index[pid]] if s.uid is not None)
            for uid in (u for u, n in uids.items() if n > 1):
                self._race("failover-duplicate", t, pid, f"rebuilt inbox holds duplicate "
                           f"message {uid!r}: checkpoint and delivery log overlap")
        self._migrations[(pid, int(epoch))] = (self._snap(CTL), t)
        # The install runs synchronously on the new owner's master
        # timeline, so the new owner observes the migration here - not
        # only at the requeue event (a delivery can reactivate the
        # program before the requeue pops).
        self._join(new_proc, self._snap(CTL))

    def _on_requeue(self, t: float, pid, proc, epoch) -> None:
        mig = self._migrations.get((pid, int(epoch)))
        if mig is not None:
            self._join(proc, mig[0])
        self._tick(proc)

    # -- membership plane (DESIGN.md §14) -------------------------------------------

    def _on_suspect(self, t: float, proc, inc) -> None:
        # Fencing is the control plane deciding the proc failed: it
        # justifies draining migrations exactly like a crash does.
        self._tick(CTL)
        self._failed_procs.add(proc)

    def _on_restart(self, t: float, proc) -> None:
        self._tick(CTL)
        if proc not in self._failed_procs:
            self._race(
                "restart-without-crash", t, f"proc={proc}",
                f"restart announcement for proc {proc} precedes any "
                "recorded crash or suspicion of it",
            )

    def _on_xfer(self, t: float, proc, inc, nprogs) -> None:
        self._tick(CTL)
        self._xfers[(proc, int(inc))] = (self._snap(CTL), t)

    def _on_rejoin(self, t: float, proc, inc) -> None:
        self._tick(CTL)
        xfer = self._xfers.get((proc, int(inc)))
        if xfer is None:
            self._race(
                "rejoin-without-transfer", t, f"proc={proc}",
                f"proc {proc} rejoined as incarnation {inc} with no "
                "recorded state transfer for that incarnation: the new "
                "life is not anchored to the checkpoint/delivery-log "
                "catch-up",
            )
        else:
            self._rejoin_anchor[proc] = (xfer[0], t, int(inc))
        self._rejoined.add(proc)
        self._failed_procs.discard(proc)

    def _on_promote(self, t: float, proc) -> None:
        # A promoted proc never lost state: no transfer anchor, but it
        # becomes a legitimate rebalance target and is healthy again.
        self._tick(CTL)
        self._rejoined.add(proc)
        self._failed_procs.discard(proc)

    # -- end-of-run checks ----------------------------------------------------------

    def finish(self) -> list[HbRace]:
        if self.run is not None:
            self._check_edges(dict(zip(self.run[1].pids, self.run[1].progs)))
        return self.races

    def _check_edges(self, progs: dict) -> None:
        """Every resilient sweep program applied each remote in-edge of
        its upwind neighbours' graphs exactly once (topology-derived, so
        it holds even where the delivery books balance)."""
        for pid, prog in progs.items():
            graph = getattr(prog, "graph", None)
            if not prog.resilient_input or not hasattr(graph, "dr_patch"):
                continue
            # Remote edge id = position in the graph's remote CSR.
            per_dst: dict[int, set[int]] = {}
            for eid, dp in enumerate(graph.dr_patch.tolist()):
                per_dst.setdefault(dp, set()).add(eid)
            for dp, eids in per_dst.items():
                dst = progs.get(ProgramId(dp, pid.task))
                if dst is None or not hasattr(dst, "_applied"):
                    continue
                applied = dst._applied.get(pid.patch, set())
                if applied != eids:
                    self._race("edge-accounting", float("nan"), repr(dst.id),
                               f"from upwind {pid!r}: {len(eids - applied)} edges "
                               f"never applied, {len(applied - eids)} unknown applied")
