"""Sweep-as-a-service: a fault-isolated multi-tenant job layer.

Everything PR 1-5 built executes *one* sweep well - even under
crashes, partitions and corruption.  The paper's production context
(ROADMAP item 3) is many sweeps: campaigns of jobs from multiple
users, sharing one simulated cluster, where one tenant's poison spec
or arrival burst must not take down another tenant's work.  This
package is that layer:

* :mod:`~repro.service.spec` - content-addressed :class:`JobSpec`,
  :class:`JobResult`, the closed failure taxonomy, structured
  :class:`JobRejected` load-shed;
* :mod:`~repro.service.admission` - bounded per-tenant credits plus a
  global backlog bound (credit-based backpressure on jobs);
* :mod:`~repro.service.breaker` - per-tenant circuit breakers
  (closed -> open -> half-open) that quarantine failing tenants;
* :mod:`~repro.service.executor` - the *only* module that touches the
  runtime, strictly through the ``DataDrivenRuntime`` facade (lint
  rule PROTO003 enforces this), with content-addressed scenario
  caching;
* :mod:`~repro.service.service` - the event loop: fair-share
  dispatch, deadlines, transient-failure retry with seeded jittered
  backoff, exactly-once commit, graceful degradation under overload;
* :mod:`~repro.service.chaos` - seeded adversarial traffic campaigns
  holding all of the above to one oracle.

The whole layer runs on service virtual time with one seeded
generator: a multi-tenant traffic day replays bit-for-bit.

Durability: construct the service with a
:class:`~repro.persist.wal.WriteAheadLog` and every submission,
attempt start, commit and terminal record is journaled before it takes
effect; :meth:`SweepService.recover` replays the journal after a host
crash, truncates a torn tail, re-admits in-flight jobs and never
commits a content hash twice.
"""

from ..persist.wal import WalError, WriteAheadLog, replay_wal
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .chaos import (
    ServiceChaosSpace,
    ServiceWorkload,
    check_service_invariants,
    random_service_workload,
    run_service_campaign,
    run_service_case,
)
from .executor import AttemptOutcome, JobExecutor
from .service import ServiceConfig, SweepService
from .spec import (
    FailureReason,
    JobRejected,
    JobResult,
    JobSpec,
    JobStatus,
    RejectReason,
)

__all__ = [
    "JobSpec",
    "JobResult",
    "JobRejected",
    "JobStatus",
    "FailureReason",
    "RejectReason",
    "AdmissionController",
    "CircuitBreaker",
    "AttemptOutcome",
    "JobExecutor",
    "ServiceConfig",
    "SweepService",
    "ServiceChaosSpace",
    "ServiceWorkload",
    "random_service_workload",
    "check_service_invariants",
    "run_service_case",
    "run_service_campaign",
    "WalError",
    "WriteAheadLog",
    "replay_wal",
]
