"""Alg. 1 once: the run state, run step and stream admission every
executor drives, plus the serial reference executor.

:class:`SerialEngine` runs patch-programs in one process, delivering
streams immediately (the correctness reference).  The DES scheduler and
the BSP baseline drive the same :class:`RunState`, :func:`run_step` and
:func:`admit`, and all three end with ``termination.verify_quiescent``.
The serial engine owns the Fig. 7 state machine and schedules by
program priority (a max-heap), so the priority strategies of Sec. V-D
take effect even in serial runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .._util import ReproError, check_count
from .patch_program import PatchProgram, ProgramState
from .stream import ProgramId, Stream
from .termination import verify_quiescent

__all__ = ["EngineStats", "RunState", "SerialEngine", "admit", "run_step"]


@dataclass
class RunState:
    """Shared per-run program-execution state (Alg. 1's bookkeeping).

    All fields are parallel arrays over the *dense program index*
    minted by :meth:`add` in registration order - the same order the
    DES router interns ``index_of``, so scheduler, router and transport
    agree on every index.  ``index`` maps a :class:`ProgramId` back to
    its slot for cold-path callers (recovery, requeue, reports).
    """

    pids: list[ProgramId] = field(default_factory=list)
    index: dict[ProgramId, int] = field(default_factory=dict)
    progs: list[PatchProgram] = field(default_factory=list)
    state: list[ProgramState] = field(default_factory=list)
    inbox: list[list[Stream]] = field(default_factory=list)
    inited: list[bool] = field(default_factory=list)
    epoch: list[int] = field(default_factory=list)  # bumped on failover

    def add(self, prog: PatchProgram) -> None:
        if prog.id in self.index:
            raise ReproError(f"duplicate program {prog.id!r}")
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


def run_step(st: RunState, i: int) -> list[Stream]:
    """One run of program ``i``: ``init()`` on its first run, the inbox
    in arrival order, ``compute()``; returns the emitted streams.  The
    one place a program's ``input`` and ``compute`` are called."""
    prog = st.progs[i]
    if not st.inited[i]:
        prog.init()
        st.inited[i] = True
    box = st.inbox[i]
    if box:
        for s in box:
            prog.input(s)
        box.clear()
    prog.compute()
    return prog.drain_outputs()


def admit(pid: ProgramId, s: Stream, index_of: dict[ProgramId, int]) -> int:
    """Route check of a fresh emission of ``pid`` (``s.dsti < 0``):
    refuse a forged ``src`` or an unknown ``dst``, stamp and return
    the destination index ``s.dsti``."""
    if s.src is not pid and s.src != pid:  # sweep programs pass ``self.id``
        raise ReproError(f"program {pid!r} emitted a stream claiming src {s.src!r}")
    di = index_of.get(s.dst, -1)
    if di < 0:
        raise ReproError(f"stream to unknown program {s.dst!r}")
    s.dsti = di
    return di


@dataclass
class EngineStats:
    """Counters describing one engine run."""

    executions: int = 0
    streams: int = 0
    stream_items: int = 0
    stream_bytes: int = 0
    activations: int = 0
    max_queue: int = 0


class SerialEngine:
    """Serial executor for patch-programs with Alg. 1 semantics."""

    def __init__(self, max_executions: int = 100_000_000):
        self.max_executions = check_count("max_executions", max_executions, "a run budget")
        self.st = RunState()
        self._heap: list = []
        self._queued: set[int] = set()
        self._seq = 0
        self.stats = EngineStats()

    # -- registration -------------------------------------------------------------

    def add_program(self, prog: PatchProgram) -> None:
        self.st.add(prog)

    def state(self, pid: ProgramId) -> ProgramState:
        return self.st.state[self.st.index[pid]]

    # -- internals -----------------------------------------------------------------

    def _push(self, i: int) -> None:
        if i in self._queued:
            return
        self._queued.add(i)
        self._seq += 1
        heapq.heappush(self._heap, (-self.st.progs[i].priority(), self._seq, i))
        self.stats.max_queue = max(self.stats.max_queue, len(self._heap))

    def _execute(self, i: int) -> None:
        st, stats = self.st, self.stats
        pid = st.pids[i]
        for s in run_step(st, i):
            di = s.dsti if s.dsti >= 0 else admit(pid, s, st.index)
            st.inbox[di].append(s)
            stats.streams += 1
            stats.stream_items += s.items
            stats.stream_bytes += s.nbytes
            # Receiving a stream activates the target (Fig. 7).
            if st.state[di] is ProgramState.INACTIVE:
                st.state[di] = ProgramState.ACTIVE
                stats.activations += 1
            self._push(di)
        stats.executions += 1
        if st.progs[i].vote_to_halt() and not st.inbox[i]:
            st.state[i] = ProgramState.INACTIVE
        else:
            self._push(i)

    # -- driver ------------------------------------------------------------------------

    def run(self) -> EngineStats:
        """Execute until global termination (no active programs)."""
        st = self.st
        for i in range(len(st.progs)):
            self._push(i)
        while self._heap:
            _, _, i = heapq.heappop(self._heap)
            self._queued.discard(i)
            if st.state[i] is ProgramState.ACTIVE:
                if self.stats.executions >= self.max_executions:
                    raise ReproError("engine exceeded max_executions; livelock?")
                self._execute(i)
        verify_quiescent(st)
        return self.stats
