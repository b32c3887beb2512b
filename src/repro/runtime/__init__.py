"""Simulated-cluster data-driven runtime (systems S9-S10, S20).

The stand-in for the paper's MPI+threads runtime on Tianhe-2: a
discrete-event simulation that executes the real patch-programs and
reports virtual makespan plus the Fig. 16 time breakdown.

Layered substrate (each layer its own module; no layer imports one
above it): :mod:`~repro.runtime.simulator` (DES core) <
:mod:`~repro.runtime.router` (route table) <
:mod:`~repro.runtime.transport` (reliable delivery) <
:mod:`~repro.runtime.scheduler` (dispatch policies, worker pools) <
:mod:`~repro.runtime.recovery` (checkpoints, failover) <
:mod:`~repro.runtime.engine_des` (composition root), which hands the
composed stack to the one master event loop in
:mod:`~repro.runtime.loop`.
"""

from .cluster import TIANHE2, Layout, Machine
from .costmodel import CATEGORIES, CostModel
from .engine_des import (
    SNAPSHOT_VERSION,
    DataDrivenRuntime,
    DeadlineExceeded,
    HostKilled,
)
from .faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    RecoveryConfig,
    StragglerWindow,
)
from .metrics import Breakdown, RunReport
from .perfmodel import SweepModelPrediction, SweepPerformanceModel
from .checker import SanitizerError
from .router import Router
from .scheduler import HybridPolicy, MpiOnlyPolicy, Scheduler, SchedulerPolicy
from .simulator import Resource, Simulator, TraceEvent
from .transport import (
    StallError,
    StallReport,
    Transport,
    WaitEdge,
    stream_checksum,
)

__all__ = [
    "Machine",
    "Layout",
    "TIANHE2",
    "CostModel",
    "CATEGORIES",
    "DataDrivenRuntime",
    "DeadlineExceeded",
    "HostKilled",
    "SNAPSHOT_VERSION",
    "RunReport",
    "Breakdown",
    "CrashFault",
    "StragglerWindow",
    "LinkPartition",
    "FaultPlan",
    "FaultInjector",
    "RecoveryConfig",
    "SweepPerformanceModel",
    "SweepModelPrediction",
    "Simulator",
    "Resource",
    "TraceEvent",
    "WaitEdge",
    "StallReport",
    "StallError",
    "SanitizerError",
    "Router",
    "Transport",
    "stream_checksum",
    "Scheduler",
    "SchedulerPolicy",
    "HybridPolicy",
    "MpiOnlyPolicy",
]
