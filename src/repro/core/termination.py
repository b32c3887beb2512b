"""Distributed termination detection (Sec. III-B, IV-C).

Two mechanisms, as in the paper:

* :class:`WorkloadTracker` - the no-negotiation fast path.  Data-driven
  numerical algorithms know their workload in advance (sweeps: the
  number of (cell, angle) pairs), so each patch-program *commits* its
  remaining workload to a structure shared by the process's master and
  workers, and the process only joins distributed negotiation when its
  committed workload is zero.

* :func:`consensus_hops` - the general consensus protocol [14],
  Misra's marker ring, as the closed-form hop count the DES runtime
  charges when a run ends quiescent under ``termination="consensus"``
  (the negotiation cost the fast path avoids).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._util import ReproError
from .patch_program import ProgramState

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .engine import RunState

__all__ = ["WorkloadTracker", "consensus_hops", "verify_quiescent"]


class WorkloadTracker:
    """Shared remaining-workload registry (per process or global).

    Commits are idempotent under re-execution: each key carries the
    *execution epoch* of the committing run (bumped when a program is
    re-assigned to a new owner after a crash), and a commit from a
    superseded epoch is ignored.  This keeps the fast path correct when
    a stale run's commit races a migrated program's fresh commits.
    """

    def __init__(self):
        self._remaining: dict = {}
        self._epoch: dict = {}

    def commit(self, key, remaining: int, epoch: int = 0) -> bool:
        """Commit the remaining workload of ``key`` (e.g. a program id).

        Returns True when applied, False when ignored as a stale-epoch
        duplicate of a superseded execution.
        """
        if remaining < 0:
            raise ReproError("negative workload")
        last = self._epoch.get(key)
        if last is not None and epoch < last:
            return False
        self._epoch[key] = epoch
        if remaining == 0:
            self._remaining.pop(key, None)
        else:
            self._remaining[key] = int(remaining)
        return True

    def total(self) -> int:
        return sum(self._remaining.values())

    def is_done(self) -> bool:
        return not self._remaining

    def pending_keys(self) -> list:
        return list(self._remaining.keys())

    # -- durability (snapshot/restore) -----------------------------------

    def state_dict(self) -> dict:
        """Codec-ready tracker state (dict insertion order preserved)."""
        return {
            "remaining": dict(self._remaining),
            "epoch": dict(self._epoch),
        }

    def load_state_dict(self, d: dict) -> None:
        self._remaining = dict(d["remaining"])
        self._epoch = dict(d["epoch"])


def consensus_hops(nprocs: int) -> int:
    """Marker hops Misra's consensus [14] needs to certify termination
    of ``nprocs`` processes that are all idle already: ``2n - 1``.

    A marker circulates a ring of processes; a process is *black* if
    it has sent or received an application message since the marker
    last visited it, and termination is declared once the marker has
    made ``n`` consecutive visits to white, idle processes.  The charge
    is paid after quiescence, so no process is busy or messaging while
    the marker moves.  Every process starts black (nothing is known of
    its past): the first circuit, ``n`` hops, whitens all ``n`` and
    counts no clean visit.  The marker is then back at process 0, now
    white - the first clean visit - and ``n - 1`` more white hops make
    the ``n`` clean visits, the last of which declares termination
    without a further hop.  Total ``n + (n - 1)``.
    """
    if nprocs <= 0:
        raise ReproError("nprocs must be positive")
    return 2 * nprocs - 1


def verify_quiescent(st: RunState, tracker: WorkloadTracker | None = None) -> None:
    """Post-run invariant of every executor: quiescence must mean
    *completion*.  Every program must be INACTIVE with an empty inbox
    and zero remaining workload, and the workload ledger (DES only)
    drained - a run that ends otherwise silently lost work.
    """
    for pid, prog, state, box in zip(st.pids, st.progs, st.state, st.inbox):
        if state is not ProgramState.INACTIVE:
            raise ReproError(f"{pid!r} still active at quiescence")
        if box:
            raise ReproError(f"{pid!r} has {len(box)} undelivered streams")
        rem = prog.remaining_workload()
        if rem is not None and rem != 0:
            raise ReproError(f"{pid!r} finished with {rem} work remaining")
    if tracker is not None and not tracker.is_done():
        raise ReproError(
            f"workload tracker not drained: {tracker.pending_keys()!r}"
        )
