"""Discrete-event simulator core (S10): the substitute for Tianhe-2.

The bottom layer of the runtime stack (paper Sec. IV / Fig. 8's
"virtual machine"): an event heap ordered by ``(virtual time, push
sequence)``, serial :class:`Resource` timelines (one per simulated
core), the virtual clock, and the quiescence counter that recognizes
when no forward-progress event is outstanding.  Everything above -
transport, routing, scheduling, recovery, and the runtimes themselves
(data-driven, BSP, KBA) - runs on this one substrate, so every runtime
variant shares a single cost model and time axis, as the paper's
Table I caveat requests.

This layer knows nothing about patch-programs, streams, processes or
faults: event *kinds* are opaque strings and event *data* is opaque to
the heap.  The one sequence counter is shared between the event heap
and any external priority queues (via :meth:`Simulator.next_seq`), so
tie-breaking is globally deterministic across all queues of a run.

Every kind is interned to a dense id.  A composed run declares its
whole vocabulary up front (each layer above describes the kinds it
owns as :class:`KindRow` rows) and the simulator then refuses kinds
nobody declared.  The master loop (:mod:`repro.runtime.loop`) pops
``(t, seq, kind id, data)`` entries straight off the heap, one per
event, and dispatches by id; :meth:`Simulator.pop` is the same pop
behind a named-kind API, for the BSP/KBA baselines and the reference
interpreters in the tests.

The optional trace hook fires once per dispatched event with a
structured :class:`TraceEvent`; the ``trace_fields`` callable (supplied
by the layer that defines the event vocabulary) extracts the proc/core/
program fields from each event's opaque data.
"""

from __future__ import annotations

from heapq import heappop, heappush
from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

from .._util import ReproError

__all__ = [
    "Resource",
    "Simulator",
    "KindRow",
    "TraceEvent",
]


class Resource:
    """A serial server (one core's timeline)."""

    __slots__ = ("free", "core")

    def __init__(self, core: tuple):
        self.free = 0.0
        self.core = core

    def book(self, now: float, duration: float) -> tuple[float, float]:
        start = max(now, self.free)
        end = start + duration
        self.free = end
        return start, end


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record: what the event loop processed.

    ``detail`` is only populated on out-of-band notes (see
    :meth:`Simulator.note`): a flat tuple of JSON-scalar fields whose
    schema is keyed by ``kind`` (e.g. the ``hb_*`` happens-before
    records consumed by :mod:`repro.analysis.hb`).
    """

    time: float
    kind: str
    proc: int | None
    core: tuple | None
    program: str | None
    detail: tuple | None = None


class KindRow(NamedTuple):
    """One row of the event-kind table, handed over by the owning layer."""

    kind: str
    handler: Callable[[Any, float], None]  # handler(data, now)
    progress: bool = False  # counts toward the quiescence detector
    control: bool = False  # control plane: never advances makespan/events
    #: ``(data, now) -> bool`` filter consulted at dispatch; True drops
    #: the event uncounted (only faults ever make one stale).
    stale: Callable[[Any, float], bool] | None = None


class Simulator:
    """Event heap + virtual clock + quiescence counter.

    ``progress_kinds`` names the event kinds that represent actual
    forward progress of a run (a composed run sets them through
    :meth:`declare`); :attr:`live` counts how many of them are
    outstanding, which lets higher layers recognize quiescence (e.g.
    checkpoint/crash events scheduled after a job finished are inert).
    """

    __slots__ = ("_events", "_seq", "live", "makespan", "_progress",
                 "trace_hook", "trace_fields", "note_hook",
                 "_kind_ids", "_kind_names", "_progress_mask",
                 "_pop_counts", "peak_heap", "_sealed")

    def __init__(
        self,
        progress_kinds: frozenset = frozenset(),
        trace_hook: Callable[[TraceEvent], None] | None = None,
        trace_fields: Callable[[str, Any], tuple] | None = None,
        note_hook: Callable[[TraceEvent], None] | None = None,
    ):
        self._events: list = []
        self._seq = 0
        self.live = 0  # outstanding progress events (quiescence detector)
        self.makespan = 0.0
        self._progress = frozenset(progress_kinds)
        self.trace_hook = trace_hook
        self.trace_fields = trace_fields
        self.note_hook = note_hook
        # Heap entries are ``(t, seq, kind id, data)``: ``seq`` is unique,
        # so comparisons never reach the kind or the data.  Event kinds
        # are interned to dense integer ids, and everything known per
        # kind (progress mask, counts) is a list indexed by that id.
        self._kind_ids: dict[str, int] = {}
        self._kind_names: list[str] = []
        self._progress_mask: list[bool] = []
        self._pop_counts: list[int] = []
        self._sealed = False  # True: the kind vocabulary is closed
        self.peak_heap = 0  # high-water heap occupancy (perf_summary)

    def kind_id(self, kind: str) -> int:
        """Intern an event kind, minting a dense id on first sight.

        Ids are stable for the simulator's lifetime; every per-kind
        column is extended in lock-step.  Once the vocabulary is sealed
        an unknown kind is an error: nothing could ever dispatch it.
        """
        kid = self._kind_ids.get(kind)
        if kid is None:
            if self._sealed:
                raise ReproError(
                    f"event kind {kind!r} has no registered handler"
                )
            kid = len(self._kind_names)
            self._kind_ids[kind] = kid
            self._kind_names.append(kind)
            self._progress_mask.append(kind in self._progress)
            self._pop_counts.append(0)
        return kid

    def declare(self, rows: Iterable[KindRow]) -> tuple[list, list, list]:
        """Close the vocabulary to exactly the kinds of ``rows``
        (composition time, before the first push) and return their
        ``(handlers, control, stale)`` columns indexed by kind id.
        A kind with two rows, or interned by some layer (to push it)
        but owned by none, is an error naming it; one minted later
        fails at its push.  The columns are the caller's to hold: bound
        handlers stored here would tie the stack into a reference
        cycle only the cyclic collector frees."""
        table: dict[str, KindRow] = {}
        for row in rows:
            if row.kind in table:
                raise ReproError(f"event kind {row.kind!r} is registered twice")
            table[row.kind] = row
        orphans = [k for k in self._kind_names if k not in table]
        if orphans:
            raise ReproError(
                f"event kind(s) {orphans!r} are pushed but no layer "
                "registered a handler"
            )
        for kind in table:
            self.kind_id(kind)
        # Re-established by the composition root on every compose,
        # restore included.
        self._progress = frozenset(k for k, r in table.items() if r.progress)  # repro: transient
        self._progress_mask = [k in self._progress for k in self._kind_names]
        self._sealed = True  # repro: transient
        ordered = [table[k] for k in self._kind_names]
        return (
            [r.handler for r in ordered],
            [r.control for r in ordered],
            [r.stale for r in ordered],
        )

    def note(self, t: float, kind: str, detail: tuple) -> None:
        """Record one out-of-band structured note (e.g. an ``hb_*``
        happens-before record) on the note stream.

        Notes are pure observation: they never touch the event heap or
        the shared tie-break sequence, so arming the note hook cannot
        perturb event ordering - golden fingerprints are bitwise
        identical with and without it.  Callers on hot paths should
        guard on :attr:`note_hook` before building ``detail``.
        """
        if self.note_hook is not None:
            self.note_hook(
                TraceEvent(t, kind, None, None, None, tuple(detail))
            )

    def next_seq(self) -> int:
        """Next tie-break sequence number, shared with external queues."""
        self._seq += 1
        return self._seq

    def push(self, t: float, kind: str, data: Any) -> None:
        """Schedule one event at virtual time ``t``."""
        self.push_id(t, self.kind_id(kind), data)

    def push_id(self, t: float, kid: int, data: Any) -> None:
        """Schedule one event by interned kind id (hot path).

        Callers that push the same kind repeatedly intern it once via
        :meth:`kind_id` and skip the per-push dict lookup.
        """
        if self._progress_mask[kid]:
            self.live += 1
        self._seq += 1
        heappush(self._events, (t, self._seq, kid, data))

    def pop(self) -> tuple[float, str, Any]:
        """Pop and account the earliest event (one-at-a-time API)."""
        events = self._events
        n = len(events)
        if n > self.peak_heap:
            self.peak_heap = n
        t, _, kid, data = heappop(events)
        self._pop_counts[kid] += 1
        self.account(t, kid, data)
        return t, self._kind_names[kid], data

    def account(self, t: float, kid: int, data: Any) -> None:
        """Account one popped event as it is dispatched: the quiescence
        counter, then the trace hook - so handlers and staleness
        filters observe the counters of every event before them."""
        if self._progress_mask[kid]:
            self.live -= 1
        if self.trace_hook is not None:
            proc = core = program = None
            kind = self._kind_names[kid]
            if self.trace_fields is not None:
                proc, core, program = self.trace_fields(kind, data)
            self.trace_hook(TraceEvent(t, kind, proc, core, program))

    # -- durability (snapshot/restore) ---------------------------------------------

    def state_dict(self) -> dict:
        """Codec-ready view of the heap, clock and interning tables.

        The heap list is captured *verbatim* (entries are tuples holding
        the live event data): restoring it re-establishes the exact pop
        order, tie-break sequences included.  ``kind_names`` is the id mapping itself -
        its order must round-trip bit-for-bit.
        """
        return {
            "events": list(self._events),
            "seq": self._seq,
            "live": self.live,
            "makespan": self.makespan,
            "kind_names": list(self._kind_names),
            "pop_counts": list(self._pop_counts),
            "peak_heap": self.peak_heap,
        }

    def load_state_dict(self, d: dict) -> None:
        """Restore :meth:`state_dict`; derived masks are rebuilt from
        the progress kinds armed at composition.  Once the vocabulary
        is closed its kind ids index the composed handler table, so
        the snapshot's id mapping must be the composed one."""
        names = list(d["kind_names"])
        if self._sealed and names != self._kind_names:
            raise ReproError(
                "snapshot event-kind table does not match this "
                f"composition ({names!r} vs {self._kind_names!r})"
            )
        self._kind_names = names
        self._kind_ids = {k: i for i, k in enumerate(names)}
        self._progress_mask = [k in self._progress for k in names]
        self._events = list(d["events"])
        self._seq = d["seq"]
        self.live = d["live"]
        self.makespan = d["makespan"]
        self._pop_counts = list(d["pop_counts"])
        self.peak_heap = d["peak_heap"]

    def event_counts(self) -> dict[str, int]:
        """Events processed so far, by kind (perf accounting)."""
        return {
            k: c
            for k, c in zip(self._kind_names, self._pop_counts)
            if c
        }

    def observe(self, t: float) -> None:
        """Advance the virtual clock's high-water mark (the makespan)."""
        if t > self.makespan:
            self.makespan = t

    def __bool__(self) -> bool:
        return bool(self._events)

    def __len__(self) -> int:
        return len(self._events)
