"""The sweep service: multi-tenant job layer over the DES runtime.

``SweepService`` is itself a small discrete-event simulation, one
level above the cluster DES: its clock is service virtual time, its
events are job submissions and attempt completions, and each
*attempt* advances the clock by exactly the virtual makespan the
cluster DES reports (a job occupies its worker slot for as long as the
simulated cluster would have computed).  Everything - admission,
worker-pool crash draws, breaker transitions - is driven by one seeded
generator and the event order, so an entire multi-tenant day of
traffic replays bit-for-bit from ``(ServiceConfig, workload)``.

Life of a job::

    submit --> cache? ----------------------------> cached JobResult
        \\-> admission credits -> breaker gate -> (maybe demote)
             -> tenant ready queue -> fair-share dispatch
             -> JobExecutor attempt -> ok? commit exactly once
                                    -> worker crash? back to its queue
                                    -> terminal failure (taxonomy)

Retry policy is deliberately narrow: only *transient* failures - a
worker-pool crash, which exists above the deterministic cluster DES -
are retried, at once and up to ``MAX_ATTEMPTS`` attempts in all.
Deadline overruns, stalls, and structured runtime errors are
deterministic functions of the spec; retrying them verbatim would burn
capacity to reproduce the same failure, so they fail fast (and feed
the tenant's circuit breaker, which is how a poison spec gets
quarantined).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .._util import ReproError, check_count
from ..persist.wal import WriteAheadLog, replay_wal
from .admission import EST_JOB_TIME, AdmissionController
from .breaker import CircuitBreaker
from .executor import AttemptOutcome, JobExecutor
from .spec import (
    FailureReason,
    JobRejected,
    JobResult,
    JobSpec,
    JobStatus,
    RejectReason,
)

__all__ = ["ServiceConfig", "SweepService"]


#: Attempts per job, the first included; only worker crashes retry.
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class ServiceConfig:
    """Settable values of one service instance (all virtual-time)."""

    workers: int = 4  # concurrent executor slots (cluster slices)
    tenant_slots: int = 4  # live jobs one tenant may hold
    global_slots: int = 16  # service-wide backlog bound
    default_deadline: float = 5e-3  # per-attempt budget when spec has none
    breaker_threshold: int = 3  # consecutive failures that open a breaker
    breaker_open_for: float = 10e-3  # cool-down before the half-open probe
    #: Demote new jobs once the backlog exceeds this fraction of
    #: ``global_slots``; 1.0 disables degradation (backlog can never
    #: exceed the bound itself).  Once degraded, full fidelity resumes
    #: only after the backlog drains to :attr:`recover_at` (hysteresis:
    #: a backlog hovering around ``degrade_at`` must not flap between
    #: fidelities).
    degrade_at: float = 0.75
    worker_crash_rate: float = 0.0  # P(attempt dies with its pool worker)
    seed: int = 0  # crash draws
    #: The demoted configuration: coarser clustering grain, fewer and
    #: larger patches (a spec never gets finer, see JobSpec.demoted).
    demote_grain: ClassVar[int] = 64
    demote_patch: ClassVar[int] = 4

    def __post_init__(self):
        check_count("workers", self.workers, "worker slots")
        # The credit and breaker bounds are checked by the classes that
        # use them; building one of each here refuses a bad config at
        # construction instead of at its first submission.
        AdmissionController(self.tenant_slots, self.global_slots)
        CircuitBreaker(self.breaker_threshold, self.breaker_open_for)
        # ``not > 0`` also refuses NaN; inf is a valid "no budget".
        if not self.default_deadline > 0:
            raise ReproError(
                f"default_deadline must be positive; got "
                f"default_deadline={self.default_deadline!r}"
            )
        if not (0.0 < self.degrade_at <= 1.0):
            raise ReproError("degrade_at must be in (0, 1]")
        if not (0.0 <= self.worker_crash_rate < 1.0):
            raise ReproError("worker_crash_rate must be in [0, 1)")

    @property
    def recover_at(self) -> float:
        """The recovery watermark: two thirds of ``degrade_at``."""
        return self.degrade_at * 2 / 3


def _spec_fields(spec: JobSpec) -> dict:
    """A JobSpec as a plain field dict for the journal.

    Shallow on purpose: the ``faults`` FaultPlan rides along as the
    (codec-registered) dataclass object, so ``JobSpec(**d)`` on replay
    rebuilds an identical spec - same content hash, same scenario.
    """
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


@dataclass
class _Job:
    """Internal record of one admitted (non-cached) job."""

    spec: JobSpec  # as submitted (identity)
    exec_spec: JobSpec  # as executed (== spec unless demoted)
    result: JobResult
    followers: list[JobResult]  # coalesced duplicates awaiting commit


class SweepService:
    """Deterministic multi-tenant front end of the sweep runtime."""

    def __init__(self, config: ServiceConfig = ServiceConfig(),
                 executor: JobExecutor | None = None,
                 wal: WriteAheadLog | None = None):
        self.cfg = config
        #: Optional write-ahead journal: submissions, attempt starts,
        #: commits and terminal records are appended *before* they take
        #: effect, so a restarted service can replay the journal and
        #: re-admit in-flight jobs (:meth:`recover`).
        self.wal = wal
        self.executor = executor if executor is not None else JobExecutor()
        self.admission = AdmissionController(
            config.tenant_slots, config.global_slots
        )
        self.breakers: dict[str, CircuitBreaker] = {}
        self._rng = np.random.default_rng(config.seed)
        # -- event plane (service virtual time) ----------------------------
        self._events: list[tuple] = []  # heap of (time, seq, kind, payload)
        self._seq = itertools.count()
        self.now = 0.0
        # -- scheduling state ----------------------------------------------
        self.free_workers = config.workers
        self._ready: dict[str, deque[_Job]] = {}  # tenant -> FIFO queue
        self._rr = 0  # fair-share rotation cursor over tenant order
        self._inflight: dict[str, _Job] = {}  # key -> primary job
        # -- outcomes -------------------------------------------------------
        self.committed: dict[str, JobResult] = {}  # exactly-once store
        self.results: list[JobResult] = []  # terminal records, commit order
        self.rejections: list[dict] = []  # shed submissions (+ "at" time)
        self._ids = itertools.count()
        # -- counters -------------------------------------------------------
        self.arrivals_seen: list[tuple[float, str, str]] = []  # (t, tenant, key)
        self.cache_hits = 0
        self.coalesced = 0
        self.demotions = 0
        self.worker_crashes = 0
        #: Degradation latch (hysteresis): set when the backlog crosses
        #: ``degrade_at``, cleared - one capacity recovery - only when
        #: it drains back to ``recover_at``.
        self.degraded = False
        self.capacity_recoveries = 0

    # -- public API --------------------------------------------------------------

    def submit(self, spec: JobSpec, at: float = 0.0) -> None:
        """Enqueue a submission event at service time ``at``."""
        if not math.isfinite(at):
            raise ReproError(f"cannot submit at {at!r}: time must be finite")
        if at < self.now:
            raise ReproError(
                f"cannot submit at {at:.6f}s: service time is {self.now:.6f}s"
            )
        if self.wal is not None:
            # Journal the intent before it takes effect: a crash after
            # this append re-admits the job on replay; a crash before
            # it means the client never got its accept and resubmits.
            self.wal.append(
                {"type": "submit", "at": at, "spec": _spec_fields(spec)}
            )
        self._push(at, "submit", spec)

    def run_until_idle(self, max_events: int | None = None) -> list[JobResult]:
        """Drain the event plane; returns all terminal records so far.

        ``max_events`` bounds the number of events processed (the
        durability harness uses it to cut a campaign mid-flight);
        None drains to quiescence.
        """
        processed = 0
        while self._events:
            if max_events is not None and processed >= max_events:
                break
            processed += 1
            self.now, _, kind, payload = heapq.heappop(self._events)
            if kind == "submit":
                self._on_submit(payload)
            elif kind == "finish":
                job, outcome = payload
                self._on_finish(job, outcome)
            else:  # pragma: no cover - event kinds are closed
                raise ReproError(f"unknown service event {kind!r}")
            self._pump()
        return self.results

    def metrics(self) -> dict:
        """Aggregate service-level counters (the SLO dashboard)."""
        by_reason: dict[str, int] = {}
        for r in self.results:
            if r.status == JobStatus.FAILED:
                by_reason[r.reason] = by_reason.get(r.reason, 0) + 1
        # A breaker rejection passed admit() before giving its credit
        # back: the admission controller counts it, but it is shed.
        breaker_open = sum(
            1 for r in self.rejections
            if r["reason"] == RejectReason.BREAKER_OPEN
        )
        return {
            "submissions": self.admission.submissions + self.cache_hits,
            "admitted": (
                self.admission.submissions - self.admission.shed()
                - breaker_open
            ),
            "completed": sum(
                1 for r in self.results if r.status == JobStatus.COMPLETED
            ),
            "failed": by_reason,
            "shed": {
                RejectReason.TENANT_QUEUE_FULL: self.admission.shed_tenant,
                RejectReason.SERVICE_OVERLOADED: self.admission.shed_global,
                RejectReason.BREAKER_OPEN: breaker_open,
            },
            "shed_rate": (
                len(self.rejections)
                / max(1, self.admission.submissions + self.cache_hits)
            ),
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "demotions": self.demotions,
            "degraded": self.degraded,
            "capacity_recoveries": self.capacity_recoveries,
            "worker_crashes": self.worker_crashes,
            "breaker_trips": {
                t: b.trips for t, b in self.breakers.items() if b.trips
            },
            "scenario_builds": self.executor.scenario_builds,
        }

    # -- durability (WAL replay) -------------------------------------------------

    @classmethod
    def recover(
        cls,
        config: ServiceConfig,
        wal_path,
        executor: JobExecutor | None = None,
        fsync: bool = True,
    ) -> "SweepService":
        """Restart a service from its write-ahead journal.

        Replays every intact record of the journal (a torn or CRC-bad
        tail is truncated away): journaled commits and terminal records
        are installed as-is - no re-execution, no double commit of a
        content hash - and submissions with no terminal record yet are
        re-admitted onto the event plane.  The returned service has the
        (truncated) journal re-attached and is ready for
        :meth:`run_until_idle`.

        The clock resumes at the last record that took effect; a submit
        record (journaled when queued, maybe for a future arrival) does
        not move it, and its submission re-arrives at ``max(at, now)``.
        The degradation latch starts clear and latches the live way.
        """
        records, good = replay_wal(wal_path)
        svc = cls(config, executor=executor)  # wal attached after replay
        # (key, tenant)-FIFO matching: each terminal-ish record settles
        # the oldest outstanding submission of its content + tenant.
        submits: list[list] = []  # [at, spec, settled?]
        buckets: dict[tuple, deque] = {}
        max_id = -1

        def settle(key: str, tenant: str) -> None:
            q = buckets.get((key, tenant))
            if q:
                submits[q.popleft()][2] = True

        for rec in records:
            t = rec["type"]
            if t == "submit":
                spec = JobSpec(**rec["spec"])
                buckets.setdefault(
                    (spec.key(), spec.tenant), deque()
                ).append(len(submits))
                submits.append([float(rec["at"]), spec, False])
                continue
            svc.now = max(svc.now, float(rec["at"]))
            if t == "attempt":
                max_id = max(max_id, int(rec["job_id"]))
            elif t == "commit":
                r = JobResult.from_dict(rec["result"])
                max_id = max(max_id, r.job_id)
                if r.key in svc.committed:
                    continue  # replayed duplicate: never double-commit
                svc.committed[r.key] = r
                svc.results.append(r)
                settle(r.key, r.tenant)
            elif t == "terminal":
                r = JobResult.from_dict(rec["result"])
                max_id = max(max_id, r.job_id)
                svc.results.append(r)
                settle(r.key, r.tenant)
            elif t == "reject":
                svc.rejections.append(dict(rec["reject"]))
                settle(rec["key"], rec["reject"]["tenant"])
            else:  # pragma: no cover - record kinds are closed
                raise ReproError(f"unknown WAL record type {t!r}")
        svc._ids = itertools.count(max_id + 1)
        # Re-attach the journal first truncating the torn tail, then
        # re-admit in-flight submissions *without* re-journaling them -
        # their submit records are already in the intact prefix.
        for at, spec, settled in submits:
            if not settled:
                svc._push(max(at, svc.now), "submit", spec)
        svc.wal = WriteAheadLog(wal_path, fsync=fsync, truncate_to=good)
        return svc

    # -- event helpers -----------------------------------------------------------

    def _push(self, at: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (at, next(self._seq), kind, payload))

    def _breaker(self, tenant: str) -> CircuitBreaker:
        br = self.breakers.get(tenant)
        if br is None:
            br = CircuitBreaker(
                self.cfg.breaker_threshold, self.cfg.breaker_open_for
            )
            self.breakers[tenant] = br
        return br

    # -- submission path ---------------------------------------------------------

    def _on_submit(self, spec: JobSpec) -> None:
        key = spec.key()
        self.arrivals_seen.append((self.now, spec.tenant, key))
        # 1. Content-hash cache: a repeat of a committed job costs
        #    nothing - no credit, no worker, no breaker probe.
        hit = self.committed.get(key)
        if hit is not None:
            self.cache_hits += 1
            self._record(self._cached_copy(hit, spec))
            return
        # 2. Admission credits, then the breaker.  ``admit`` raises
        #    before charging, so a shed submission consumes nothing;
        #    the breaker (which must mutate probe state in half-open)
        #    is consulted only once a credit is actually held.
        try:
            self.admission.admit(spec.tenant, self.now)
        except JobRejected as rej:
            self._reject(rej, key)
            return
        br = self._breaker(spec.tenant)
        if not br.allow(self.now):
            self.admission.release(spec.tenant)
            self._check_capacity()
            self._reject(JobRejected(
                RejectReason.BREAKER_OPEN, br.retry_after(self.now),
                spec.tenant,
                detail=f"breaker {br.state} after "
                       f"{br.consecutive_failures} consecutive failures",
            ), key)
            return
        # 3. Idempotent resubmission: same content already queued or
        #    running -> coalesce onto the primary, commit will fan out.
        primary = self._inflight.get(key)
        if primary is not None:
            self.coalesced += 1
            fr = self._skeleton(spec, key)
            fr.cached = True
            primary.followers.append(fr)
            return
        # 4. Graceful degradation: past the overload watermark the
        #    service latches degraded and new jobs run the coarser
        #    (cheaper) configuration until capacity recovers - the
        #    backlog draining back to the ``recover_at`` watermark
        #    (checked where credits release), not merely dipping below
        #    ``degrade_at``.
        exec_spec = spec
        result = self._skeleton(spec, key)
        if (
            not self.degraded
            and self.admission.total
            > self.cfg.degrade_at * self.cfg.global_slots
        ):
            self.degraded = True
        if self.degraded:
            exec_spec = spec.demoted(
                self.cfg.demote_grain, self.cfg.demote_patch
            )
            if exec_spec.build_fields() != spec.build_fields():
                self.demotions += 1
                result.demoted = True
                result.demote_note = (
                    f"overload: grain {spec.grain}->{exec_spec.grain}, "
                    f"patch {spec.patch}->{exec_spec.patch}"
                )
        job = _Job(spec=spec, exec_spec=exec_spec, result=result,
                   followers=[])
        self._inflight[key] = job
        self._enqueue(job)

    def _skeleton(self, spec: JobSpec, key: str) -> JobResult:
        return JobResult(
            job_id=next(self._ids), tenant=spec.tenant, key=key,
            status=JobStatus.FAILED, submitted=self.now,
        )

    def _cached_copy(self, hit: JobResult, spec: JobSpec) -> JobResult:
        r = self._skeleton(spec, hit.key)
        r.status = JobStatus.COMPLETED
        r.started = r.finished = self.now
        r.makespan = hit.makespan
        r.flux_crc = hit.flux_crc
        r.exact = hit.exact
        r.cached = True
        r.demoted = hit.demoted
        r.demote_note = hit.demote_note
        return r

    def _reject(self, rej: JobRejected, key: str) -> None:
        d = rej.to_dict()
        d["at"] = self.now
        if self.wal is not None:
            self.wal.append(
                {"type": "reject", "at": self.now, "key": key, "reject": dict(d)}
            )
        self.rejections.append(d)

    # -- dispatch (fair share) ---------------------------------------------------

    def _enqueue(self, job: _Job) -> None:
        q = self._ready.get(job.spec.tenant)
        if q is None:
            q = deque()
            self._ready[job.spec.tenant] = q
        q.append(job)

    def _pump(self) -> None:
        """Fill free worker slots round-robin across tenant queues.

        The rotation cursor persists across pumps, so a tenant that
        keeps its queue full cannot shadow later tenants: each dispatch
        hands the next slot to the next tenant in first-seen order.
        """
        tenants = list(self._ready)  # insertion-ordered, stable
        while self.free_workers > 0 and any(
            self._ready[t] for t in tenants
        ):
            for off in range(len(tenants)):
                t = tenants[(self._rr + off) % len(tenants)]
                if self._ready[t]:
                    self._rr = (self._rr + off + 1) % len(tenants)
                    self._dispatch(self._ready[t].popleft())
                    break

    def _dispatch(self, job: _Job) -> None:
        self.free_workers -= 1
        if job.result.attempts == 0:
            job.result.started = self.now
        job.result.attempts += 1
        if self.wal is not None:
            self.wal.append({
                "type": "attempt", "at": self.now, "key": job.result.key,
                "job_id": job.result.job_id, "attempt": job.result.attempts,
            })
        if (self.cfg.worker_crash_rate > 0.0
                and self._rng.random() < self.cfg.worker_crash_rate):
            # The pool worker dies mid-attempt: the cluster DES never
            # ran (nothing to replay), the slot is held for the partial
            # slice the worker burned before dying.
            self.worker_crashes += 1
            burned = float(self._rng.uniform(0.2, 0.9)) * EST_JOB_TIME
            outcome = AttemptOutcome(
                status="crash", duration=burned,
                detail="worker pool member crashed mid-attempt",
            )
        else:
            deadline = (
                job.spec.deadline if job.spec.deadline is not None
                else self.cfg.default_deadline
            )
            outcome = self.executor.execute(job.exec_spec, deadline)
        self._push(self.now + outcome.duration, "finish", (job, outcome))

    # -- completion path ---------------------------------------------------------

    def _on_finish(self, job: _Job, outcome: AttemptOutcome) -> None:
        self.free_workers += 1
        if outcome.status == "ok":
            self._commit(job, outcome)
            return
        if outcome.status == "crash" and job.result.attempts < MAX_ATTEMPTS:
            # A crash is the pool's fault, not the spec's: the job goes
            # straight back to its tenant's queue, keeping its credit.
            self._enqueue(job)
            return
        self._fail(job, outcome)

    _REASONS = {
        "crash": FailureReason.WORKER_CRASH,
        "deadline": FailureReason.DEADLINE,
        "stall": FailureReason.STALL,
        "error": FailureReason.RUNTIME_ERROR,
        "invalid": FailureReason.INVALID,
    }

    def _commit(self, job: _Job, outcome: AttemptOutcome) -> None:
        key = job.result.key
        if key in self.committed:  # pragma: no cover - exactly-once guard
            raise ReproError(f"double commit for job key {key}")
        r = job.result
        r.status = JobStatus.COMPLETED
        r.reason = ""
        r.finished = self.now
        r.makespan = outcome.makespan
        r.flux_crc = outcome.flux_crc
        r.exact = outcome.exact
        if self.wal is not None:
            # Journal the commit before installing it: replay treats a
            # journaled commit as authoritative, so the content hash
            # can never be committed twice across a crash.
            self.wal.append({
                "type": "commit", "at": self.now, "key": key,
                "result": r.to_dict(),
            })
        self.committed[key] = r
        self._settle(job, success=True)

    def _fail(self, job: _Job, outcome: AttemptOutcome) -> None:
        r = job.result
        r.status = JobStatus.FAILED
        r.reason = self._REASONS[outcome.status]
        r.detail = outcome.detail
        r.finished = self.now
        r.makespan = outcome.makespan
        r.stall = outcome.stall
        self._settle(job, success=False)

    def _settle(self, job: _Job, success: bool) -> None:
        """One terminal record per admitted submission, primary first."""
        del self._inflight[job.result.key]
        br = self._breaker(job.spec.tenant)
        (br.on_success if success else br.on_failure)(self.now)
        self._record(job.result)
        self.admission.release(job.spec.tenant)
        src = job.result
        for fr in job.followers:
            fr.status = src.status
            fr.reason = src.reason
            fr.detail = "coalesced onto in-flight duplicate; " + src.detail
            fr.started = fr.started or src.started
            fr.finished = self.now
            fr.makespan = src.makespan
            fr.flux_crc = src.flux_crc
            fr.exact = src.exact
            fr.demoted = src.demoted
            fr.demote_note = src.demote_note
            self._record(fr)
            self.admission.release(fr.tenant)
        self._check_capacity()

    def _check_capacity(self) -> None:
        """Clear the degradation latch once the backlog drains.

        Called wherever admission credits release; crossing the
        ``recover_at`` watermark is one capacity recovery and restores
        full-fidelity execution for subsequent submissions.
        """
        if (
            self.degraded
            and self.admission.total
            <= self.cfg.recover_at * self.cfg.global_slots
        ):
            self.degraded = False
            self.capacity_recoveries += 1

    def _record(self, result: JobResult) -> None:
        if self.wal is not None and self.committed.get(result.key) is not result:
            # The primary commit already journaled itself (its commit
            # record doubles as the terminal record); everything else -
            # failures, cache hits, coalesced followers - journals here.
            self.wal.append(
                {"type": "terminal", "at": self.now, "result": result.to_dict()}
            )
        self.results.append(result)
