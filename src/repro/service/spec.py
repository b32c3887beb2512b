"""Job specifications, content-hash identity, results, and the failure
taxonomy of the sweep service.

A :class:`JobSpec` is the service's unit of work: one sweep campaign
cell - mesh family, size, decomposition, quadrature order, scheduler
mode, clustering grain, seed, and (optionally) a tenant-supplied fault
plan to run under.  Specs are *content-addressed*: :meth:`JobSpec.key`
hashes exactly the fields that determine the computation - (mesh,
partition, quadrature, scheduler, seed) - so a resubmitted or
duplicate-submitted job is recognized and committed exactly once, and
repeat jobs skip straight to the cached result.

Every terminal outcome is a :class:`JobResult` with a structured
status and failure reason from the small closed taxonomy below; an
over-capacity or breaker-blocked submission raises
:class:`JobRejected`, which always carries a ``retry_after`` hint the
client can comply with.  Nothing in this module touches the runtime:
it is pure data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .._util import ReproError, check_count
from ..sweep.sweep_program import check_grain

__all__ = [
    "JobSpec",
    "JobResult",
    "JobRejected",
    "JobStatus",
    "FailureReason",
    "RejectReason",
]

#: Mesh families and scheduler modes a spec may name (the golden
#: scenario matrix of the chaos campaigns).
KINDS = ("structured", "unstructured")
MODES = ("hybrid", "mpi_only")


class JobStatus:
    """Terminal status of an accepted job (exactly one per job)."""

    COMPLETED = "completed"
    FAILED = "failed"


class FailureReason:
    """Why a job failed: the closed failure taxonomy.

    Every ``FAILED`` result carries exactly one of these; free-text
    detail goes in ``JobResult.detail``, never in ``reason``.
    """

    DEADLINE = "deadline"  # virtual-time budget exhausted, run cancelled
    STALL = "stall"  # a send gave up: StallError (StallReport attached)
    WORKER_CRASH = "worker-crash"  # retry budget exhausted on pool crashes
    RUNTIME_ERROR = "runtime-error"  # structured runtime failure (ReproError)
    INVALID = "invalid-spec"  # rejected by validation at execution time


class RejectReason:
    """Why a submission was shed at the front door."""

    TENANT_QUEUE_FULL = "tenant-queue-full"  # per-tenant credits exhausted
    SERVICE_OVERLOADED = "service-overloaded"  # global backlog bound hit
    BREAKER_OPEN = "breaker-open"  # tenant circuit breaker is open


@dataclass(frozen=True)
class JobSpec:
    """One sweep job: everything needed to build and run the scenario.

    All fields are identity *except* ``tenant`` and ``deadline``:
    who submits a computation and how patient they are does not change
    what is computed, so duplicates across tenants still share one
    cached result.
    """

    tenant: str
    kind: str = "structured"  # mesh family
    mode: str = "hybrid"  # scheduler / core layout policy
    size: int = 8  # mesh resolution (cells or generator parameter)
    patch: int = 2  # cells/axis per patch (structured) or target size
    grain: int = 16  # vertex-clustering grain
    sn: int = 2  # quadrature order (level-symmetric)
    seed: int = 0  # enters key() only; the executor never reads it
    deadline: float | None = None  # virtual-seconds budget; None = config default
    #: Tenant-supplied chaos: a FaultPlan the job's DES run is armed
    #: with.  One tenant's faults live and die inside its own runs -
    #: the whole point of the job layer's fault isolation.
    faults: object | None = None

    def __post_init__(self):
        if not self.tenant:
            raise ReproError("job spec needs a tenant id")
        if self.kind not in KINDS:
            raise ReproError(f"unknown mesh kind {self.kind!r}")
        if self.mode not in MODES:
            raise ReproError(f"unknown scheduler mode {self.mode!r}")
        if check_count("size", self.size, "mesh size") < 2:
            raise ReproError("mesh size must be >= 2")
        check_count("patch", self.patch, "patch parameter")
        check_grain(self.grain)
        if check_count("sn", self.sn, "quadrature order") % 2:
            raise ReproError("sn must be a positive even quadrature order")
        # ``not > 0`` also refuses NaN, which compares false both ways.
        if self.deadline is not None and not self.deadline > 0:
            raise ReproError(
                f"job deadline must be positive; got deadline={self.deadline!r}"
            )

    # -- content identity -------------------------------------------------------

    def build_fields(self) -> tuple:
        """The fields that determine the *built* scenario (mesh +
        partition + quadrature + grain).  Everything expensive the
        executor derives - mesh, patch set, sweep DAG, priorities,
        reference flux - is a pure function of these; the mode only
        picks the process layout a run maps the patches onto."""
        return (self.kind, self.size, self.patch, self.grain, self.sn)

    def key(self) -> str:
        """Content hash of (mesh, partition, quadrature, scheduler,
        seed): the idempotency key of exactly-once commit and of the
        result cache.  Tenant-supplied faults are part of the content -
        the same sweep under different chaos is a different run."""
        ident = ((self.kind, self.mode, self.size, self.patch, self.grain,
                  self.sn), self.seed, _plan_fields(self.faults))
        return hashlib.sha256(repr(ident).encode()).hexdigest()[:16]

    def demoted(self, grain: int, patch: int) -> "JobSpec":
        """The graceful-degradation variant: same physics request on a
        coarser clustering grain and fewer/larger patches (cheaper to
        schedule, cheaper to simulate)."""
        return JobSpec(
            tenant=self.tenant, kind=self.kind, mode=self.mode,
            size=self.size, patch=max(self.patch, patch),
            grain=max(self.grain, grain), sn=self.sn, seed=self.seed,
            deadline=self.deadline, faults=self.faults,
        )


def _plan_fields(plan) -> tuple | None:
    """Canonical identity tuple of a FaultPlan (or None).

    Uses the plan's own frozen-dataclass repr, which is stable and
    covers crashes/stragglers/partitions/rates/seed.
    """
    return None if plan is None else (repr(plan),)


class JobRejected(ReproError):
    """Structured load-shed: the submission was not accepted.

    Always carries a machine-readable ``reason`` (one of
    :class:`RejectReason`) and a ``retry_after`` hint in service
    virtual-seconds: resubmitting at ``now + retry_after`` is the
    compliant client behavior, and the admission controller sizes the
    hint so a compliant retry normally finds capacity.
    """

    def __init__(self, reason: str, retry_after: float, tenant: str,
                 detail: str = ""):
        self.reason = reason
        self.retry_after = retry_after
        self.tenant = tenant
        self.detail = detail
        super().__init__(
            f"job rejected ({reason}) for tenant {tenant!r}: retry in "
            f"{retry_after:.6f}s virtual" + (f" - {detail}" if detail else "")
        )

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "retry_after": self.retry_after,
            "tenant": self.tenant,
            "detail": self.detail,
        }


@dataclass
class JobResult:
    """The exactly-one terminal record of an accepted job."""

    job_id: int  # admission order (unique per service instance)
    tenant: str
    key: str  # content hash (JobSpec.key of the submitted spec)
    status: str  # JobStatus.*
    reason: str = ""  # FailureReason.* when FAILED, else ""
    detail: str = ""  # free-text diagnostic (never parsed)
    submitted: float = 0.0  # service virtual time of admission
    started: float = 0.0  # first dispatch
    finished: float = 0.0  # terminal record time
    attempts: int = 0  # executions consumed (>= 1 unless cached)
    makespan: float = 0.0  # DES virtual makespan (or consumed budget)
    flux_crc: int | None = None  # CRC32 of the committed flux bytes
    exact: bool | None = None  # flux bitwise-equal to fault-free reference
    cached: bool = False  # served from the content-hash result cache
    demoted: bool = False  # executed under the degraded config
    demote_note: str = ""  # what the degraded config was
    stall: dict | None = None  # StallReport.to_dict() on STALL failures

    @property
    def latency(self) -> float:
        """Submission-to-terminal service latency (the SLO metric)."""
        return self.finished - self.submitted

    @staticmethod
    def from_dict(d: dict) -> "JobResult":
        """Rebuild a result from its :meth:`to_dict` form (WAL replay).
        An older journal's ``fault_counters`` key is ignored."""
        d = dict(d)
        d.pop("fault_counters", None)
        return JobResult(**d)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "key": self.key,
            "status": self.status,
            "reason": self.reason,
            "detail": self.detail,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "makespan": self.makespan,
            "flux_crc": self.flux_crc,
            "exact": self.exact,
            "cached": self.cached,
            "demoted": self.demoted,
            "demote_note": self.demote_note,
            "stall": self.stall,
        }
