"""Snapshot assembly and restore for the composed runtime (DESIGN.md §13).

The engine stays a thin composition root; this module owns the
durable-execution glue around it: the snapshot *schema* (which layer
state dicts compose into one versioned snapshot, stamped with a
configuration digest), the crash-injection signal, and the inverse
operation - loading a snapshot into a freshly composed, structurally
identical runtime stack.

Layering: sits beside ``engine_des`` (imported by it, never the other
way); every function takes the runtime instance explicitly.  Bytes on
disk are :mod:`repro.persist`'s business - here a snapshot is a plain
state dict.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

from .._util import ReproError

__all__ = ["HostKilled", "SNAPSHOT_VERSION"]

#: Version stamp of the composed runtime snapshot layout (the codec
#: frames carry their own wire version; this one tracks the *schema*
#: of the state dict assembled here).  Version 2: program contexts are
#: the programs' own ``state_dict()`` (mutable core only) instead of a
#: deep copy of their attributes.  Version 3: simulator heap entries
#: carry their kind and data (no slabs), and sweep program contexts
#: hold no run counters.  Version 4: the scheduler and transport state
#: lose the fields of the removed backup-execution and flow-control
#: mechanisms, and run-end events carry one field less.  Version 5:
#: the run report loses the counter of demotions undone by healthy
#: probes (a demotion now lasts for the rest of the run).  Version 6:
#: the simulator loses its two progress-clock fields and each pending
#: send gains ``armed_at``.  Version 7: sweep stream payloads are
#: tuples of ints (or of ``(vertex, edge_id)`` pairs), not ndarrays.
SNAPSHOT_VERSION = 7


class HostKilled(ReproError):
    """The injected host crash fired: the run was cut mid-loop.

    Raised by ``DataDrivenRuntime.run`` when a snapshot manager with a
    ``kill_at`` event index was supplied (the durability harness's
    fault injection): the loop dies at the first batch boundary at or
    past that index, and ``popped`` is the actual cut.  Nothing of the
    run survives in the process - recovery goes through the on-disk
    snapshots via ``DataDrivenRuntime.resume``.
    """

    def __init__(self, popped: int):
        self.popped = popped
        super().__init__(
            f"host killed after {popped} popped events (injected crash)"
        )


def check_persist(rt, persist) -> None:
    """Snapshotting composes with everything except trace/sanitize."""
    if persist is not None and (rt.trace or rt.sanitize):
        raise ReproError(
            "snapshotting is incompatible with trace/sanitize runs: "
            "trace buffers and run-checker books are not part "
            "of the snapshot schema"
        )


def config_digest(rt, nprograms: int) -> str:
    """Fingerprint of everything a snapshot implicitly assumes.

    A snapshot only loads into a *structurally identical* composition:
    same layout, mode, termination protocol, machine model, fault
    plan, recovery config and program count.  The digest is embedded
    in every snapshot and checked on restore.
    """
    sig = repr((
        rt.layout, rt.mode, rt.termination, rt.machine,
        rt.faults, rt.recovery, nprograms,
    ))
    return hashlib.sha256(sig.encode()).hexdigest()[:16]


def assemble_state(rt, ctx: SimpleNamespace) -> dict:
    """Assemble the crash-consistent snapshot of an active run."""
    persist = ctx.persist
    app = None
    if persist is not None and persist.app_state is not None:
        app = persist.app_state.capture()
    return {
        "version": SNAPSHOT_VERSION,
        "config": config_digest(rt, len(ctx.st.progs)),
        "popped": ctx.popped,
        "sim": ctx.sim.state_dict(),
        "router": ctx.router.state_dict(),
        "transport": ctx.transport.state_dict(),
        "scheduler": ctx.sched.state_dict(),
        "runstate": ctx.st.state_dict(),
        "recovery": ctx.rec.state_dict() if ctx.ft else None,
        "tracker": ctx.tracker.state_dict(),
        "report": ctx.report.state_dict(),
        "injector": ctx.inj.state_dict() if ctx.inj is not None else None,
        "app": app,
    }


def save_snapshot(rt, ctx: SimpleNamespace) -> None:
    """Publish one snapshot generation through ``ctx.persist``."""
    n = ctx.persist.save(assemble_state(rt, ctx))
    ctx.report.snapshots += 1
    ctx.report.snapshot_bytes += n


def restore_into(rt, programs, patch_proc, state, persist) -> SimpleNamespace:
    """Compose a fresh runtime stack on ``rt`` and load ``state`` into it.

    ``programs`` must be freshly-constructed instances of the same
    program set the snapshot was taken over (their mutable context is
    overwritten from the snapshot).  Returns the loaded composition
    context; ``DataDrivenRuntime.resume`` drives it to completion.
    """
    if not isinstance(state, dict) or state.get("version") != SNAPSHOT_VERSION:
        raise ReproError(
            f"unsupported snapshot version {state.get('version')!r} "
            f"(this runtime writes version {SNAPSHOT_VERSION})"
        )
    if rt.sanitize:
        raise ReproError("a restored run cannot be sanitized: the run "
                         "checker never saw the snapshotted prefix")
    ctx = rt._compose(programs, patch_proc, persist)
    want = config_digest(rt, len(ctx.st.progs))
    if state.get("config") != want:
        raise ReproError(
            "snapshot was taken under a different runtime "
            f"configuration (digest {state.get('config')!r}, this "
            f"composition is {want!r})"
        )
    ctx.sim.load_state_dict(state["sim"])
    ctx.router.load_state_dict(state["router"])
    ctx.transport.load_state_dict(state["transport"])
    ctx.sched.load_state_dict(state["scheduler"])
    ctx.st.load_state_dict(state["runstate"])
    if ctx.ft:
        ctx.rec.load_state_dict(state["recovery"])
    ctx.tracker.load_state_dict(state["tracker"])
    ctx.report.load_state_dict(state["report"])
    if ctx.inj is not None and state["injector"] is not None:
        ctx.inj.load_state_dict(state["injector"])
    ctx.popped = int(state["popped"])
    if state["app"] is not None:
        if persist is None or persist.app_state is None:
            raise ReproError(
                "snapshot carries application array state but no "
                "app_state handler was supplied to restore it"
            )
        persist.app_state.restore(state["app"])
    return ctx
