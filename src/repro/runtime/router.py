"""Route table and owner map (S9 routing plane, paper Sec. IV-B).

Streams are self-describing and therefore *routable*: the runtime
resolves any stream's destination program to its owning process
through the route table kept here.  The router owns

* ``proc_of``   - program id -> current owning process (the route table
  proper; consulted on every stream emission and queue pop),
* ``patch_owner`` - patch -> process (the mutable patch-level owner
  map behind it),
* ``owned``     - process -> resident program ids,
* ``dead``      - the set of crashed processes,
* ``inc``/``fenced`` - per-process incarnation numbers and the fenced
  set: the membership view of the elastic-membership extension
  (DESIGN.md §14).  A process's life is numbered; fencing pre-bumps
  the number (invalidating the old life's traffic) and a rejoin
  *announces* the pre-bumped incarnation,

and implements the dynamic owner re-assignment of the fault-tolerance
extension (S20): on failover, a dead process's patches are re-assigned
round-robin over the survivors and every resident program's route is
updated, so in-flight and future streams chase the migrated programs.
On rejoin, :meth:`rebalance_to` pulls patches back under a bounded
move budget.

Construction validates the user-supplied ``patch_proc`` table outright
(:func:`check_patch_proc`), so malformed route tables fail fast
rather than obscurely mid-simulation.

This layer sits directly above :mod:`repro.runtime.simulator` and
knows nothing about transport, scheduling or recovery policy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .._util import ReproError
from ..core.stream import ProgramId

__all__ = ["Router", "check_patch_proc"]


def check_patch_proc(programs: Sequence, patch_proc, nprocs: int) -> np.ndarray:
    """The user's patch -> process table as an array, refused unless it
    is 1-D, non-empty, within ``[0, nprocs)`` and covers every patch
    (the DES router and the BSP baseline both call this)."""
    if len(programs) == 0:
        raise ReproError("no programs to run")
    patch_proc = np.asarray(patch_proc)
    if patch_proc.ndim != 1:
        raise ReproError("patch_proc must be a one-dimensional array")
    if patch_proc.size == 0:
        raise ReproError("patch_proc is empty")
    if int(patch_proc.min()) < 0:
        raise ReproError(
            f"patch_proc contains negative process id {int(patch_proc.min())}"
        )
    if int(patch_proc.max()) >= nprocs:
        raise ReproError(
            f"patch_proc references proc {int(np.max(patch_proc))} but the "
            f"layout has only {nprocs} processes"
        )
    for prog in programs:
        if not 0 <= prog.id.patch < patch_proc.size:
            raise ReproError(
                f"program {prog.id!r} references a patch outside "
                f"patch_proc (length {patch_proc.size})"
            )
    return patch_proc


class Router:
    """Program/patch owner map with crash-driven re-assignment."""

    def __init__(self, programs: Sequence, patch_proc: np.ndarray, nprocs: int):
        patch_proc = check_patch_proc(programs, patch_proc, nprocs)
        self.nprocs = nprocs
        self.proc_of: dict[ProgramId, int] = {}  # the route table
        # Interned program ids: every program gets a dense index at
        # route-table build, so per-message bookkeeping above (e.g. the
        # transport's per-sender sequence counters) can live in flat
        # arrays keyed by ``index_of[pid]`` instead of per-id dicts.
        self.pids: list[ProgramId] = []
        self.index_of: dict[ProgramId, int] = {}
        #: ``proc_idx[index_of[pid]] == proc_of[pid]`` - the route table
        #: as a flat array over interned indices (the hot-path view;
        #: kept in sync by :meth:`reassign`).
        self.proc_idx: list[int] = []
        for prog in programs:  # ids unique: the run state refuses duplicates
            p = int(patch_proc[prog.id.patch])
            self.proc_of[prog.id] = p
            self.index_of[prog.id] = len(self.pids)
            self.pids.append(prog.id)
            self.proc_idx.append(p)
        self.patch_owner = patch_proc.astype(np.int64).copy()
        self.owned: dict[int, list[ProgramId]] = {p: [] for p in range(nprocs)}
        for pid, p in self.proc_of.items():
            self.owned[p].append(pid)
        self.dead: set[int] = set()
        #: Demoted processes: alive but persistently slow; they keep
        #: receiving/forwarding in-flight streams but no longer own
        #: programs and are skipped as re-assignment targets.
        self.demoted: set[int] = set()
        #: Per-process incarnation number: bumped once per life
        #: transition (fence or announce).  Membership view: a fenced
        #: proc's current traffic is from a life already invalidated.
        self.inc: list[int] = [0] * nprocs
        self.fenced: set[int] = set()

    # -- durability (snapshot/restore) ---------------------------------------------

    def state_dict(self) -> dict:
        """Codec-ready owner-map state.

        ``owned`` lists are captured verbatim - their order drives the
        recovery layer's per-process checkpoint iteration - while the
        membership-only ``dead``/``demoted`` sets are sorted.  The
        interning tables (``pids``/``index_of``) are construction-time
        facts re-derived from the program list, not state.
        """
        return {
            "proc_idx": list(self.proc_idx),
            "patch_owner": self.patch_owner,
            "owned": {p: list(v) for p, v in self.owned.items()},
            "dead": sorted(self.dead),
            "demoted": sorted(self.demoted),
            "inc": list(self.inc),
            "fenced": sorted(self.fenced),
        }

    def load_state_dict(self, d: dict) -> None:
        self.proc_idx = [int(x) for x in d["proc_idx"]]
        for pid, i in self.index_of.items():
            self.proc_of[pid] = self.proc_idx[i]
        self.patch_owner = np.asarray(d["patch_owner"], dtype=np.int64).copy()
        self.owned = {int(p): list(v) for p, v in d["owned"].items()}
        self.dead = set(d["dead"])
        self.demoted = set(d["demoted"])
        self.inc = [int(x) for x in d["inc"]]
        self.fenced = set(d["fenced"])

    def alive(self) -> list[int]:
        return [q for q in range(self.nprocs) if q not in self.dead]

    def healthy(self) -> list[int]:
        """Alive, not demoted and not fenced: the eligible
        re-assignment (and rebalance-donor) targets."""
        return [
            q for q in self.alive()
            if q not in self.demoted and q not in self.fenced
        ]

    def mark_dead(self, proc: int) -> None:
        self.dead.add(proc)

    def demote(self, proc: int) -> None:
        """Mark a live process degraded for the rest of the run (no
        crash: it stays reachable)."""
        if proc in self.dead:
            raise ReproError(f"cannot demote dead proc {proc}")
        self.demoted.add(proc)

    # -- elastic membership (incarnations; DESIGN.md §14) ----------------------------

    def fence(self, proc: int) -> int:
        """Invalidate ``proc``'s current life: pre-bump its incarnation.

        Idempotent per life: fencing an already-fenced proc does not
        bump again.  Traffic stamped with the old incarnation is now
        stale and rejected at receivers.  Returns the new incarnation.
        """
        if proc not in self.fenced:
            self.inc[proc] += 1
            self.fenced.add(proc)
        return self.inc[proc]

    def announce(self, proc: int) -> int:
        """Begin a new life for ``proc``: it is alive, unfenced, and
        speaks with the announced incarnation.

        A fenced proc adopts its pre-bumped number (fence + announce is
        one life transition); an unfenced one (a restart discovered
        before suspicion fired) bumps here.  Returns the incarnation.
        """
        if proc in self.fenced:
            self.fenced.discard(proc)
        else:
            self.inc[proc] += 1
        self.dead.discard(proc)
        return self.inc[proc]

    def reassign(self, proc: int) -> list[ProgramId]:
        """Migrate a dead process's programs to survivors.

        Re-assigns the dead owner's patches round-robin over the
        survivors through the patch owner map, updates the route table
        and residency lists, and returns the migrated program ids in
        deterministic (sorted) order.  Restoring the migrated programs
        is the recovery layer's job, not the router's.

        Also serves degraded-mode demotion: the demoted process is
        alive but excluded (like any other demoted proc) from the
        target set.  Should every survivor be demoted, targets fall
        back to all live procs other than the one being drained.
        """
        alive = [q for q in self.healthy() if q != proc] or [
            q for q in self.alive() if q != proc
        ]
        moved = sorted(self.owned[proc])
        self.owned[proc] = []
        for i, patch in enumerate(sorted({pid.patch for pid in moved})):
            self.patch_owner[patch] = alive[i % len(alive)]
        for pid in moved:
            new_p = int(self.patch_owner[pid.patch])
            self.proc_of[pid] = new_p
            self.proc_idx[self.index_of[pid]] = new_p
            self.owned[new_p].append(pid)
        return moved

    def rebalance_to(
        self, proc: int, budget: int
    ) -> tuple[list[ProgramId], dict[ProgramId, int]]:
        """Pull patches back to a rejoined process.

        Moves up to ``budget`` *patches* (with all their resident
        programs) from the currently most-loaded healthy donors to
        ``proc``, stopping once ``proc`` reaches the mean healthy load
        or donors would drop below it.  Fully deterministic: the donor
        is the max-loaded proc (ties to the lowest id) and the patch
        its highest-numbered one.  Returns the moved program ids in
        sorted order plus each one's donor (the migration source the
        recovery layer records).  Restoring the moved programs is the
        recovery layer's job, not the router's.
        """
        srcs: dict[ProgramId, int] = {}
        if budget <= 0 or proc in self.dead or proc in self.fenced:
            return [], srcs
        pool = self.healthy()
        if proc not in pool:
            return [], srcs
        target = -(-len(self.pids) // len(pool))  # ceil mean load
        while budget > 0 and len(self.owned[proc]) < target:
            donors = [
                q for q in pool
                if q != proc and len(self.owned[q]) > len(self.owned[proc]) + 1
            ]
            if not donors:
                break
            donor = max(donors, key=lambda q: (len(self.owned[q]), -q))
            patch = max(pid.patch for pid in self.owned[donor])
            pids = sorted(p for p in self.owned[donor] if p.patch == patch)
            self.patch_owner[patch] = proc
            for pid in pids:
                self.owned[donor].remove(pid)
                self.proc_of[pid] = proc
                self.proc_idx[self.index_of[pid]] = proc
                self.owned[proc].append(pid)
                srcs[pid] = donor
            budget -= 1
        return sorted(srcs), srcs
