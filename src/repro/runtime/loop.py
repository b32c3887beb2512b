"""The master event loop (Alg. 1 / Fig. 8): one loop for every run.

Pop the earliest event, route it to the layer that owns its kind,
repeat until the heap drains.  What a kind *means* - its handler,
whether it is forward progress or control plane, when it is stale - is
not decided here: at composition each layer hands over one
:class:`~repro.runtime.simulator.KindRow` per kind it owns, and the
loop indexes the resulting columns (``ctx.table``) by interned kind id.

Every run mode - clean, faulty, deadline-budgeted, snapshot-armed,
traced, resumed - takes this function, so arming any of them is
observation-free by construction.  Each iteration pops one entry
straight off the simulator heap (DESIGN.md §12.2).  Snapshot cadence,
the injected host kill and the deadline are checked only where the
timestamp changes, so a cut falls between two same-timestamp batches.
"""

from __future__ import annotations

import gc
from heapq import heappop
from types import SimpleNamespace

from .checkpoint import HostKilled, save_snapshot

__all__ = ["run_loop"]


def run_loop(rt, ctx: SimpleNamespace, deadline: float | None) -> float | None:
    """Drive ``ctx`` to quiescence (or an injected host kill).

    Returns ``None`` once the heap has drained, or - when the next
    batch lies past ``deadline`` and the run has not finished - its
    virtual time, with that batch still on the heap (not popped,
    counted or traced).  The engine owns the final ``RunReport``
    accounting either way.
    """
    sim, report, persist = ctx.sim, ctx.report, ctx.persist
    handlers, control, stale = ctx.table
    heap, counts, account = sim._events, sim._pop_counts, sim.account
    # Control/staleness rows and per-event accounting only matter when
    # something can observe them mid-run: the recovery layer or a trace
    # hook.  Without either, only the data-plane (progress) kinds ever
    # fire, and their ``live``/``makespan`` updates are settled in bulk.
    observed = ctx.ft or sim.trace_hook is not None
    popped, events, peak = ctx.popped, report.events, sim.peak_heap
    settled = popped  # unobserved pops up to here are settled
    next_snap = popped + persist.every if persist is not None else 0
    now = None  # timestamp of the batch being dispatched
    # Only refcount-reclaimed tuples are allocated: pause generational
    # GC (restored on every exit).
    gc_was = gc.isenabled()
    if gc_was:
        gc.disable()
    try:
        while heap:
            t = heap[0][0]
            if t != now:
                # Batch boundary: every event at ``now`` is dispatched.
                if persist is not None:
                    if popped >= next_snap:
                        _settle(ctx, popped, events, peak, now,
                                0 if observed else popped - settled)
                        settled = popped
                        save_snapshot(rt, ctx)
                        next_snap = popped + persist.every
                    if persist.kill_at is not None and popped >= persist.kill_at:
                        raise HostKilled(popped)
                if deadline is not None and t > deadline and not (
                    ctx.ft and ctx.rec.quiescent() and ctx.tracker.is_done()
                ):
                    # Batches pop in time order: first past the budget ends
                    # the run - unless the run has finished, and what is left
                    # (checkpoints, lazily cancelled timers) cannot move it.
                    return t
                now = t
            n = len(heap)
            if n > peak:
                peak = n
            _, _, kid, data = heappop(heap)
            counts[kid] += 1
            popped += 1
            if observed:
                account(now, kid, data)
                if control[kid]:
                    handlers[kid](data, now)
                    continue
                filt = stale[kid]
                if filt is not None and filt(data, now):
                    continue
                if now > sim.makespan:
                    sim.makespan = now
            events += 1
            handlers[kid](data, now)
    finally:
        _settle(ctx, popped, events, peak, now,
                0 if observed else popped - settled)
        if gc_was:
            gc.enable()
    return None


def _settle(ctx, popped: int, events: int, peak: int, now, deferred: int) -> None:
    """Write the loop's counters back for a snapshot or the report;
    ``deferred`` unobserved (so progress) pops, the latest at ``now``,
    still owe their ``live`` decrement and makespan advance."""
    sim = ctx.sim
    ctx.popped, ctx.report.events, sim.peak_heap = popped, events, peak
    if deferred:
        sim.live -= deferred
        if now > sim.makespan:
            sim.makespan = now
