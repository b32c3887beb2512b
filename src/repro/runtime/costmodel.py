"""Virtual-time cost model for the simulated cluster.

The DES executes the *real* data-driven algorithm; this model maps the
raw work counters each patch-program run reports (vertices solved,
edges relaxed, items packed...) to virtual seconds, split into the
categories of the paper's Fig. 16 breakdown:

``kernel``     user numerical computation on vertices
``graph_op``   DAG bookkeeping: heap pops, counter updates
``pack``       serializing outgoing remote streams
``unpack``     deserializing incoming remote streams
``sched``      master-thread program dispatch
``comm``       master-thread stream routing and message handling
``recovery``   fault-tolerance machinery: checkpoints, failover installs
``idle``       core time with no work available

Default constants are calibrated so that a JSNT-S-like run reproduces
the paper's observed proportions (~23% graph+pack overhead, 13-19%
comm, large idle at scale); absolute values are arbitrary but
self-consistent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .._util import ReproError

__all__ = ["CostModel", "CATEGORIES"]

CATEGORIES = (
    "kernel", "graph_op", "pack", "unpack", "sched", "comm", "recovery", "idle"
)

#: The fields of a run's counters tuple, in order.
_COUNTERS = ("vertices", "edges", "pops", "input_items")


@dataclass(frozen=True)
class CostModel:
    """Per-operation virtual costs, in seconds."""

    t_vertex: float = 1.0e-6  # kernel per (cell, angle) vertex per group
    t_edge: float = 60.0e-9  # per relaxed dependency edge
    t_pop: float = 90.0e-9  # per ready-queue pop/push pair
    t_input_item: float = 45.0e-9  # per received item (counter update)
    t_pack_fixed: float = 1.2e-6  # per outgoing remote stream
    t_pack_item: float = 25.0e-9  # per packed item
    t_unpack_fixed: float = 1.0e-6  # per incoming remote stream
    t_unpack_item: float = 25.0e-9
    t_sched: float = 1.2e-6  # shared-queue pop per program run (worker)
    t_route: float = 0.2e-6  # master routing of one local stream
    t_exec_fixed: float = 1.5e-6  # per-run fixed overhead on the worker
    groups: int = 1  # energy groups swept together

    def __post_init__(self):
        # Every booked duration is built from these coefficients, so
        # finite, >= 0 ones keep each core timeline well-formed and monotone.
        for name in (f.name for f in fields(self) if f.name != "groups"):
            if not (math.isfinite(v := getattr(self, name)) and v >= 0):
                raise ReproError(f"cost model {name}={v!r} must be finite and >= 0")
        if not (isinstance(self.groups, numbers.Integral) and self.groups >= 1):
            raise ReproError(f"cost model groups={self.groups!r} must be an int >= 1")

    def run_cost_parts(
        self, who: object, counters: tuple[int, int, int, int],
        remote_streams: int, remote_items: int,
    ) -> tuple[float, float, float, float]:
        """``(kernel, graph_op, pack, fixed)`` of one worker run of
        program ``who`` that reported ``counters = (vertices, edges,
        pops, input_items)`` (:meth:`PatchProgram.run_counters`).

        The one place counters become time, so the one place they are
        refused: a negative or NaN counter would run a core's timeline
        backwards (or poison it) without a word.
        """
        v, e, pops, inp = counters
        if not (v >= 0 and e >= 0 and pops >= 0 and inp >= 0):
            name, x = next((n, x) for n, x in zip(_COUNTERS, counters) if not x >= 0)
            raise ReproError(
                f"program {who!r} reported run counter {name}={x!r}; "
                "counters must be >= 0"
            )
        return (
            v * self.t_vertex * self.groups,
            e * self.t_edge + pops * self.t_pop + inp * self.t_input_item,
            remote_streams * self.t_pack_fixed
            + remote_items * self.t_pack_item * self.groups,
            self.t_exec_fixed,
        )

    def unpack_cost(self, streams: int, items: int) -> float:
        return (
            streams * self.t_unpack_fixed
            + items * self.t_unpack_item * self.groups
        )
