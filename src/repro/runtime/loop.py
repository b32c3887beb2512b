"""The master event loop (Alg. 1 / Fig. 8): one loop for every run.

Pop the earliest events, route each to the layer that owns its kind,
repeat until the heap drains.  What a kind *means* - its handler,
whether it is forward progress or control plane, when it is stale - is
not decided here: at composition each layer hands over one
:class:`~repro.runtime.simulator.KindRow` per kind it owns, and the
loop indexes the resulting columns (``ctx.table``) by interned kind id.

Every run mode - clean, faulty, deadline-budgeted, snapshot-armed,
traced, resumed - takes this function, so arming any of them is
observation-free by construction.  Whole same-timestamp batches are
drained per iteration; that is exact because the events of a batch are
accounted and filtered *at dispatch*, in pop order, so handlers,
staleness predicates and ``quiescent()`` see the counters one-at-a-time
popping would have shown them (DESIGN.md §12.2).  Snapshot cadence,
the injected host kill and the deadline are checked between batches:
the cut always falls between two handler executions with the
turnaround scratch idle.
"""

from __future__ import annotations

import gc
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
    account, pop_batch = sim.account, sim.pop_batch
    # Control/staleness rows and per-event accounting only matter when
    # something can observe them mid-batch: the recovery layer or a
    # trace hook.  Without either, only the data-plane kinds ever fire.
    observed = ctx.ft or sim.trace_hook is not None
    popped, events = ctx.popped, report.events
    next_snap = popped + persist.every if persist is not None else 0
    # The drain allocates only short-lived tuples/lists that refcounting
    # reclaims: pause generational GC (restored on every exit).
    gc_was = gc.isenabled()
    if gc_was:
        gc.disable()
    try:
        while sim:
            if persist is not None:
                if popped >= next_snap:
                    ctx.popped, report.events = popped, events
                    save_snapshot(rt, ctx)
                    next_snap = popped + persist.every
                if persist.kill_at is not None and popped >= persist.kill_at:
                    raise HostKilled(popped)
            if deadline is not None and sim.peek_time() > deadline and not (
                ctx.ft and ctx.rec.quiescent() and ctx.tracker.is_done()
            ):
                # Batches pop in time order: first past the budget ends
                # the run - unless the run has finished, and what is left
                # (checkpoints, lazily cancelled timers) cannot move it.
                return sim.peek_time()
            now, batch = pop_batch()
            # NB: the same-time turnaround may grow ``batch`` mid-flight;
            # list iteration picks the appends up in order, and the
            # length is taken after.
            if observed:
                for kid, data in batch:
                    popped += 1
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
            else:
                for kid, data in batch:
                    handlers[kid](data, now)
                n = len(batch)
                sim.live -= n  # only progress kinds fire here
                if now > sim.makespan:
                    sim.makespan = now
                events += n
                popped += n
    finally:
        ctx.popped, report.events = popped, events
        sim.end_batch()
        if gc_was:
            gc.enable()
    return None
