"""Admission control: bounded per-tenant queues and load shedding.

Credit-based backpressure on the job plane.  A tenant holds
``tenant_slots`` credits - one per admitted-but-not-terminal job - and
an over-capacity submission cannot wait for one: the submitter is an
open-loop client, and unbounded queuing is exactly the failure mode
admission control exists to prevent.  So instead of waiting, the
submission is *shed* with a
structured :class:`~repro.service.spec.JobRejected` carrying a
``retry_after`` hint sized from the backlog it would have waited
behind, and a compliant retry normally finds a free credit.

Two bounds compose:

* **per-tenant credits** - a tenant may hold at most ``tenant_slots``
  live jobs; one noisy tenant exhausts its own window, never the
  service's (the fair-share scheduler keeps its *dispatch* share
  bounded too);
* **global backlog bound** - the sum of all queued-or-running jobs may
  not exceed ``global_slots``; past it, every tenant is shed with
  ``SERVICE_OVERLOADED`` regardless of its own window (total-ordering
  safety valve for correlated bursts).

The controller is pure bookkeeping on the service's virtual clock - it
never touches the runtime and draws no randomness, so admission
decisions replay bit-for-bit.
"""

from __future__ import annotations

from .._util import ReproError, check_count
from .spec import JobRejected, RejectReason

__all__ = ["AdmissionController"]

#: Virtual seconds one job is estimated to hold a slot: the unit of
#: every ``retry_after`` hint and of a crashed attempt's burned slice.
EST_JOB_TIME = 1e-3


class AdmissionController:
    """Credit-gated front door of the service."""

    def __init__(self, tenant_slots: int, global_slots: int):
        check_count("tenant_slots", tenant_slots, "per-tenant credits")
        check_count("global_slots", global_slots, "global backlog bound")
        if global_slots < tenant_slots:
            raise ReproError("global_slots must be >= tenant_slots")
        self.tenant_slots = tenant_slots
        self.global_slots = global_slots
        #: tenant -> live (admitted, not yet terminal) job count: the
        #: credit ledger.  Insertion-ordered, never iterated as a set.
        self.held: dict[str, int] = {}
        self.total = 0  # sum of all held credits (global backlog)
        # -- shed accounting (the bench's shed-rate numerator) -------------
        self.submissions = 0
        self.shed_tenant = 0
        self.shed_global = 0

    # -- the admission decision -------------------------------------------------

    def admit(self, tenant: str, now: float) -> None:
        """Charge one credit to ``tenant`` or shed the submission.

        Raises :class:`JobRejected` with a deterministic
        ``retry_after`` when either bound is exhausted; on return the
        credit is held until :meth:`release`.
        """
        self.submissions += 1
        held = self.held.get(tenant, 0)
        if self.total >= self.global_slots:
            self.shed_global += 1
            raise JobRejected(
                RejectReason.SERVICE_OVERLOADED,
                self.retry_after(self.total), tenant,
                detail=f"{self.total} jobs backlogged service-wide "
                       f"(bound {self.global_slots})",
            )
        if held >= self.tenant_slots:
            self.shed_tenant += 1
            raise JobRejected(
                RejectReason.TENANT_QUEUE_FULL,
                self.retry_after(held), tenant,
                detail=f"tenant holds {held} live jobs "
                       f"(bound {self.tenant_slots})",
            )
        self.held[tenant] = held + 1
        self.total += 1

    def release(self, tenant: str) -> None:
        """Return one credit (the job reached its terminal record)."""
        held = self.held.get(tenant, 0)
        if held <= 0:
            raise ReproError(
                f"credit release for tenant {tenant!r} that holds none"
            )
        self.held[tenant] = held - 1
        self.total -= 1

    def retry_after(self, backlog: int) -> float:
        """Deterministic retry hint: how long the backlog ahead of a
        shed submission takes to drain at one estimated job time per
        slot-equivalent.  Intentionally conservative (a compliant
        retry should normally land in capacity, not bounce again)."""
        return max(1, backlog) * EST_JOB_TIME

    def shed(self) -> int:
        return self.shed_tenant + self.shed_global
