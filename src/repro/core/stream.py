"""Streams: the unit of inter-patch-program communication (Fig. 6).

A stream carries user-defined data between two patch-programs, each
identified by a ``(patch, task)`` pair.  Streams are self-describing
(they carry their source and target program ids), which is what makes
them *routable*: the runtime can deliver any stream by looking up the
target program in its route table, locally or across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable
from typing import Any

__all__ = ["ProgramId", "Stream"]


@dataclass(frozen=True, order=True)
class ProgramId:
    """Identifier of a patch-program: ``(patch, task)``.

    ``task`` is application-defined; the Sn sweep component uses the
    sweeping-angle index, giving patch-angle parallelism for free.

    Program ids key every hot dictionary of the runtime (route table,
    run state, priority queues, workload tracker), so the field-tuple
    hash the dataclass machinery would generate per lookup is cached
    once at construction instead.
    """

    patch: int
    task: Hashable

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.patch, self.task)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is ProgramId:
            return self.patch == other.patch and self.task == other.task
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.patch},{self.task})"


@dataclass(slots=True)
class Stream:
    """A routable message between two patch-programs.

    ``payload`` is opaque to the runtime; ``nbytes`` is the modeled
    wire size used by communication cost accounting, and ``items`` the
    logical item count used by pack/unpack accounting.

    ``seq`` and ``epoch`` are stamped by a fault-tolerant runtime when
    the stream crosses processes: ``(src, seq)`` is the message's
    globally unique id (the key of ack/retransmit bookkeeping and of
    receiver-side duplicate discard), and ``epoch`` is the execution
    epoch of the emitting program (bumped each time the program is
    re-executed on a new owner after a crash).  Both are None/0 on
    reliable paths and do not affect stream semantics.

    ``checksum`` is an end-to-end payload integrity code (CRC32),
    stamped at send time on reliable paths; receivers recompute it and
    NACK on mismatch, turning silent in-flight corruption into a fast
    retransmit.  ``None`` means integrity checking is off.

    ``dsti`` caches the runtime's dense index of ``dst`` (see
    ``Router.index_of``); it is stamped on first routing so repeated
    hops skip the id-keyed lookup.  ``-1`` means not yet resolved.

    ``inc`` is the incarnation tag ``(sender_proc, incarnation)``
    stamped when elastic membership is armed: receivers fence traffic
    whose incarnation is older than the sender process's current life
    (DESIGN.md §14).  ``None`` means membership is off.  Like ``seq``
    and ``epoch`` it is delivery bookkeeping, not stream content, and
    is excluded from the end-to-end checksum.
    """

    src: ProgramId
    dst: ProgramId
    payload: Any = None
    items: int = 1
    nbytes: int = 0
    seq: int | None = None
    epoch: int = 0
    checksum: int | None = None
    dsti: int = -1
    inc: tuple[int, int] | None = None

    def __post_init__(self):
        if self.items < 0 or self.nbytes < 0:
            raise ValueError("stream items/nbytes must be non-negative")

    @property
    def uid(self) -> tuple | None:
        """Globally unique message id ``(src, seq)``, or None if unstamped."""
        if self.seq is None:
            return None
        return (self.src, self.seq)
