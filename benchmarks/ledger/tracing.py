"""Span tracer for the ledger's traced run, recorded from outside ``src/``.

The tracer wraps a fixed table of *public* entry points of ``repro``
(:data:`ENTRY_POINTS`) for the duration of one ``with traced(...)``
block and restores every one of them afterwards, also when the block
raises.  Each call is a span: name (the layer), start, end and the
span that caused it (the top of a stack).  A layer's *self time* is
its spans' duration minus the part their child spans cover, so the
self times of all layers plus the root's own self time add up to the
root's duration exactly.

Hot spans (hundreds of thousands per run) are aggregated in memory per
``(layer, parent layer)``; phase-level spans opened with
:meth:`Tracer.phase` are also kept raw.  Nothing is written until the
benchmark ends (``run.py --out``).
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

__all__ = ["ENTRY_POINTS", "LAYERS", "Tracer", "traced"]

#: layer -> module -> entry points ("func" or "Class.method").
ENTRY_POINTS: dict[str, dict[str, tuple[str, ...]]] = {
    "mesh": {
        "repro.mesh.generators": (
            "ball_tet_mesh", "reactor_mesh_2d", "disk_tri_mesh", "cube_structured",
        ),
        "repro.apps.kobayashi": ("kobayashi_mesh",),
    },
    "partition": {
        "repro.partition.unstructured": ("decompose_unstructured",),
        "repro.partition.structured": ("patchify_structured", "assign_patches_sfc"),
    },
    "framework": {
        "repro.framework.patch": (
            "PatchSet.from_structured", "PatchSet.from_unstructured",
        ),
        "repro.framework.connectivity": ("build_interfaces", "build_boundary"),
    },
    "sweep.dag": {
        "repro.sweep.dag": ("SweepTopology.__init__", "topological_levels"),
    },
    "sweep.priorities": {"repro.sweep.priorities": ("apply_priorities",)},
    "sweep.solver": {
        "repro.sweep.solver": (
            "SnSolver.__init__", "SnSolver.build_programs", "SnSolver.sweep_once",
            "SnSolver.source_iteration", "SnSolver.accumulate",
        ),
    },
    "sweep.sweep_program": {
        "repro.sweep.sweep_program": (
            "SweepPatchProgram.init", "SweepPatchProgram.input",
            "SweepPatchProgram.compute", "SweepPatchProgram.drain_outputs",
        ),
    },
    "sweep.kernels": {
        "repro.sweep.kernels": (
            "AngleKernel.__init__", "AngleKernel.solve_level", "AngleKernel.solve_cells",
        ),
    },
    "runtime.engine_des": {
        "repro.runtime.engine_des": (
            "DataDrivenRuntime.run", "DataDrivenRuntime.resume",
        ),
    },
    "runtime.scheduler": {
        "repro.runtime.scheduler": (
            "Scheduler.execute", "Scheduler.complete", "Scheduler.dispatch",
            "Scheduler.enqueue",
        ),
    },
    "runtime.transport": {
        "repro.runtime.transport": (
            "Transport.send", "Transport.receive", "Transport.transmit",
            "Transport.on_ack", "Transport.on_timer", "Transport.on_nack",
            "Transport.on_hedge",
        ),
    },
    "runtime.recovery": {
        "repro.runtime.recovery": (
            "RecoveryManager.arm", "RecoveryManager.log_delivery",
            "RecoveryManager.on_crash", "RecoveryManager.on_failover",
            "RecoveryManager.on_health", "RecoveryManager.on_hbeat",
            "RecoveryManager.on_hback", "RecoveryManager.on_restart",
            "RecoveryManager.on_ckpt",
        ),
    },
    "runtime.perfmodel": {
        "repro.runtime.perfmodel": (
            "SweepPerformanceModel.__init__", "SweepPerformanceModel.predict",
        ),
    },
    "persist": {
        "repro.persist.snapshot": (
            "SnapshotManager.save", "SnapshotManager.load_latest",
        ),
        "repro.persist.codec": ("encode", "decode"),
        "repro.persist.wal": ("WriteAheadLog.append",),
        # Assembling / loading the per-layer state dicts is the cost of
        # a snapshot too, not of the event loop it interrupts.
        "repro.runtime.checkpoint": ("save_snapshot", "restore_into"),
    },
    "service": {
        "repro.service.service": (
            "SweepService.submit", "SweepService.run_until_idle",
        ),
        "repro.service.executor": ("JobExecutor.execute", "JobExecutor.scenario"),
    },
}

LAYERS: tuple[str, ...] = tuple(ENTRY_POINTS)


class Tracer:
    """In-memory span recorder with per-(layer, parent) aggregation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, child seconds, start]
        #: (name, parent name | None) -> [calls, total seconds, self seconds]
        self.agg: dict[tuple, list] = {}
        #: raw phase spans: (name, parent, start, end, repetition id)
        self.phases: list[tuple] = []
        self.rep = 0  # identifier shared by the spans of one repetition

    def enter(self, name: str) -> None:
        self._stack.append([name, 0.0, self.clock()])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        name, child, start = self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[1] += dur
            parent = top[0]
        row = self.agg.get((name, parent))
        if row is None:
            self.agg[(name, parent)] = [1, dur, dur - child]
        else:
            row[0] += 1
            row[1] += dur
            row[2] += dur - child
        return dur

    @contextmanager
    def phase(self, name: str):
        """A harness-level span, aggregated like any other and kept raw."""
        parent = self._stack[-1][0] if self._stack else None
        self.enter(name)
        start = self._stack[-1][2]
        try:
            yield
        finally:
            self.exit()
            self.phases.append((name, parent, start, self.clock(), self.rep))

    def layer_stats(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` summed over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, _total, self_s) in self.agg.items():
            row = out.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def to_json(self) -> dict:
        return {
            "aggregated": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(
                    self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
            "phases": [
                {"name": n, "parent": p, "start": a, "end": b, "rep": r}
                for n, p, a, b, r in self.phases
            ],
        }


def _wrap(fn, layer: str, tracer: Tracer):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapper


def _install(tracer: Tracer) -> list[tuple]:
    """Patch every entry point; returns the undo list."""
    undo: list[tuple] = []  # (owner, attribute, had own attribute, original)

    def patch(owner, attr, new):
        had = attr in vars(owner)
        undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    # Import everything first: a module imported while wrappers are in
    # place would copy a wrapper with ``from x import f`` and keep it.
    for modules in ENTRY_POINTS.values():
        for modname in modules:
            importlib.import_module(modname)
    try:
        for layer, modules in ENTRY_POINTS.items():
            for modname, names in modules.items():
                module = sys.modules[modname]
                for dotted in names:
                    cls_name, _, meth = dotted.rpartition(".")
                    if cls_name:
                        owner = getattr(module, cls_name)
                        raw = vars(owner).get(meth)
                        if raw is None:  # inherited: wrap what lookup finds
                            raw = getattr(owner, meth)
                        if isinstance(raw, classmethod):
                            new = classmethod(_wrap(raw.__func__, layer, tracer))
                        elif isinstance(raw, staticmethod):
                            new = staticmethod(_wrap(raw.__func__, layer, tracer))
                        else:
                            new = _wrap(raw, layer, tracer)
                        patch(owner, meth, new)
                        continue
                    original = getattr(module, dotted)
                    new = _wrap(original, layer, tracer)
                    # ``from x import f`` copies the binding: patch every
                    # repro module that holds the original under any name.
                    for other_name, other in list(sys.modules.items()):
                        if other is None or not (
                            other_name == "repro" or other_name.startswith("repro.")
                        ):
                            continue
                        for attr, val in list(vars(other).items()):
                            if val is original:
                                patch(other, attr, new)
    except BaseException:
        _restore(undo)
        raise
    return undo


def _restore(undo: list[tuple]) -> None:
    for owner, attr, had, original in reversed(undo):
        if had:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


@contextmanager
def traced(tracer: Tracer):
    """Wrap every entry point for the block; always restores them."""
    undo = _install(tracer)
    try:
        yield tracer
    finally:
        _restore(undo)
