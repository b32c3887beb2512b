"""The patch-program interface and its state machine (Sec. III-A).

A patch-program encodes the data-driven logic executed on one patch
for one task.  It is *fully reentrant*: the runtime may schedule it any
number of times (partial computation), and the program keeps whatever
local context it needs between runs.  The five primitive functions
mirror Fig. 6 of the paper:

``init``          one-time local-context initialization
``input``         consume one received stream
``compute``       perform (part of) the local computation
``output``        emit the next pending outgoing stream (None = drained)
``vote_to_halt``  True when no ready work remains locally

The two-state machine of Fig. 7 is owned by the engine/runtime, not by
the program: a program deactivates when it votes to halt and
reactivates when a stream arrives.
"""

from __future__ import annotations

import copy
import enum
from abc import ABC, abstractmethod
from collections.abc import Hashable

from .stream import ProgramId, Stream

__all__ = ["ProgramState", "PatchProgram"]


class ProgramState(enum.Enum):
    """Fig. 7: every program is either active or inactive."""

    ACTIVE = "active"
    INACTIVE = "inactive"


class PatchProgram(ABC):
    """Base class for data-driven patch-programs.

    Subclasses implement the five primitives; the engine applies the
    Alg. 1 execution semantics.  Programs must tolerate arbitrary
    interleavings of ``input`` and ``compute`` calls across runs -
    that is the partial-computation contract.
    """

    def __init__(self, patch: int, task: Hashable):
        self.id = ProgramId(patch, task)

    @property
    def patch(self) -> int:
        return self.id.patch

    @property
    def task(self) -> Hashable:
        return self.id.task

    # -- the five primitives (Fig. 6) ------------------------------------------

    def init(self) -> None:
        """Initialize local context; called exactly once, before any run."""

    @abstractmethod
    def input(self, stream: Stream) -> None:
        """Consume one received stream."""

    @abstractmethod
    def compute(self) -> None:
        """Perform (part of) the local computation on ready work."""

    @abstractmethod
    def output(self) -> Stream | None:
        """Return the next pending outgoing stream, or None when drained."""

    @abstractmethod
    def vote_to_halt(self) -> bool:
        """True when the program has no ready work left."""

    # -- optional hooks used by the runtime --------------------------------------

    def drain_outputs(self) -> list[Stream]:
        """All pending outgoing streams, in emission (FIFO) order.

        Semantically ``[s for s in iter(self.output, None)]``; programs
        that buffer emissions in a list override this to hand the
        buffer over wholesale instead of popping one stream per call.
        """
        out: list[Stream] = []
        while (s := self.output()) is not None:
            out.append(s)
        return out

    def remaining_workload(self) -> int | None:
        """Remaining work units, when known a priori (sweeps: un-solved
        vertices).  Enables the no-negotiation termination fast path of
        Sec. III-B; return None when unknown."""
        return None

    def priority(self) -> float:
        """Dynamic scheduling priority; larger runs earlier."""
        return 0.0

    # -- fault-tolerance hooks ----------------------------------------------------
    #
    # A fault-tolerant runtime periodically snapshots each program's
    # local context and, after a process crash, restores the snapshot
    # on a surviving process and replays the streams delivered since.
    # Replay may re-batch emissions differently than the lost
    # execution, so exact recovery additionally requires *idempotent*
    # input (duplicate items must be discarded); programs that provide
    # it set ``resilient_input`` to True.

    #: True when ``input`` discards duplicate payload items, making the
    #: program safe to re-execute from a checkpoint after a crash.
    resilient_input: bool = False

    def checkpoint_shared(self) -> tuple[str, ...]:
        """Names of attributes the default :meth:`checkpoint` leaves
        out: immutable topology and resources shared with the host
        (graphs, solve callbacks writing into global arrays)."""
        return ()

    def checkpoint(self):
        """Snapshot of the mutable local context.

        A program that defines ``state_dict()`` / ``load_state_dict()``
        is captured through that pair: it names its mutable core, copies
        it one level deep and rebuilds the rest on load, so in-sim
        checkpoints, runtime snapshots and resume share one cheap path.
        The fallback deep-copies every instance attribute not named by
        :meth:`checkpoint_shared` - always complete, never cheap.
        """
        capture = getattr(self, "state_dict", None)
        if capture is not None:
            return capture()
        shared = set(self.checkpoint_shared())
        return copy.deepcopy(
            {k: v for k, v in self.__dict__.items() if k not in shared}
        )

    def restore(self, snapshot) -> None:
        """Restore local context from a :meth:`checkpoint` snapshot.

        The snapshot itself is left untouched (it may be restored again
        after a second failure); the target is the captured program or
        a freshly constructed twin over the same shared resources.
        """
        load = getattr(self, "load_state_dict", None)
        if load is not None:
            load(snapshot)
        else:
            self.__dict__.update(copy.deepcopy(snapshot))

    # -- cost-model hooks (all zero-cost by default) -------------------------------
    #
    # The DES runtime charges virtual time based on what a run actually
    # did; a program reports the raw work counters of the execution it
    # is in and the runtime's CostModel maps them to virtual seconds.

    def run_counters(self) -> tuple[int, int, int, int]:
        """``(vertices, edges, pops, input_items)`` of the current
        execution - vertices solved, dependency edges relaxed,
        ready-queue pops, stream items consumed - reset to zero by
        the call.  The runtime reads them once per execution, after
        ``compute``."""
        return (0, 0, 0, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}{self.id!r}"
