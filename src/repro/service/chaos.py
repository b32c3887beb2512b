"""Service-level chaos: seeded adversarial traffic against the job layer.

The runtime chaos campaign (:mod:`repro.chaos`) attacks the cluster
*inside* one run.  This module attacks the layer above: open-loop
arrival bursts that overrun admission, a worker pool that keeps
crashing attempts, poison specs whose fault plans can never finish
(they stall until a send's give-up age diagnoses them), and duplicate
submissions racing their originals - all from one seed, so a failing
campaign cell replays exactly.

The oracle is the service's whole contract at once
(:func:`check_service_invariants`):

* **drained** - the event plane, every tenant queue, the in-flight
  table and the admission ledger are empty; all worker slots are free;
* **one terminal record per accepted submission** - nothing is lost,
  nothing is answered twice (no starvation: accepted means answered);
* **exactly-once commit** - at most one committed result per content
  hash; every completed record of a key carries that one flux CRC;
* **no wrong answers** - completed non-poison jobs are bitwise-exact
  against the fault-free reference; poison jobs *never* complete;
* **determinism** - the same (config, workload) replayed against a
  fresh service produces byte-identical records and rejections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .._util import check_count
from ..chaos import ChaosSpace, random_fault_plan
from ..runtime import FaultPlan, LinkPartition
from .executor import JobExecutor
from .service import ServiceConfig, SweepService
from .spec import JobSpec, JobStatus

__all__ = [
    "ServiceChaosSpace",
    "ServiceWorkload",
    "ServiceCaseResult",
    "random_service_workload",
    "check_service_invariants",
    "run_service_case",
    "run_service_campaign",
]


#: The sampled traffic space of every campaign cell: open-loop bursts
#: over a few tenants, a poison share whose plans can never finish, a
#: recoverable-chaos share, racing duplicates and a flaky worker pool.
TENANTS = 3
BURSTS = 3  # open-loop arrival bursts
BURST_GAP = 4e-3  # virtual seconds between burst starts
BURST_WIDTH = 0.5e-3  # arrivals spread inside one burst
POISON_FRAC = 0.15  # specs whose plan can never finish
CHAOS_FRAC = 0.25  # specs under recoverable runtime chaos
DUP_FRAC = 0.2  # extra duplicate submissions appended


@dataclass(frozen=True)
class ServiceChaosSpace:
    """The size of one campaign cell."""

    jobs: int = 24  # submissions per case (before duplicates)

    def __post_init__(self):
        check_count("jobs", self.jobs, "submissions per case")


@dataclass(frozen=True)
class ServiceWorkload:
    """One seeded traffic trace: arrivals plus the poison ground truth."""

    config: ServiceConfig
    arrivals: tuple  # ((time, JobSpec), ...) sorted by time
    poison_keys: frozenset  # content hashes that must never complete


def _poison_plan(seed: int) -> FaultPlan:
    """A fault plan that can never finish: the 0<->1 link stays
    partitioned for longer than any run survives, so every delivery
    retry bounces until the send's give-up age diagnoses the stall."""
    return FaultPlan(
        partitions=(LinkPartition(0, 1, 0.0, math.inf),), seed=seed
    )


def random_service_workload(
    seed: int, space: ServiceChaosSpace = ServiceChaosSpace()
) -> ServiceWorkload:
    """The campaign cell for ``seed``: a pure function of its number.

    All randomness comes from ``np.random.default_rng((seed, 7001))``;
    the embedded recoverable fault plans are themselves the seeded pure
    plans of :func:`repro.chaos.random_fault_plan`.
    """
    rng = np.random.default_rng((seed, 7001))
    cfg = ServiceConfig(
        workers=2,
        tenant_slots=4,
        global_slots=8,
        worker_crash_rate=0.25,  # a flaky worker pool
        breaker_threshold=2,
        breaker_open_for=6e-3,
        degrade_at=0.5,
        seed=int(rng.integers(0, 2**31)),
    )
    # Keep the runtime chaos gentle: the *service* is under test here,
    # and recoverable plans must stay recoverable (see repro.chaos).
    chaos_space = ChaosSpace(intensity=0.3)
    arrivals: list[tuple[float, JobSpec]] = []
    poison: set[str] = set()
    for j in range(space.jobs):
        burst = int(rng.integers(0, BURSTS))
        at = burst * BURST_GAP + float(rng.uniform(0.0, BURST_WIDTH))
        tenant = f"tenant-{int(rng.integers(0, TENANTS))}"
        draw = float(rng.random())
        faults = None
        if draw < POISON_FRAC:
            faults = _poison_plan(int(rng.integers(0, 2**31)))
        elif draw < POISON_FRAC + CHAOS_FRAC:
            # nprocs=4: the hybrid 16-core layout of the default spec.
            faults = random_fault_plan(
                int(rng.integers(0, 2**20)), 4, chaos_space
            )
        spec = JobSpec(
            tenant=tenant,
            seed=int(rng.integers(0, 8)),  # small pool -> real duplicates
            patch=int(rng.choice((2, 4))),
            faults=faults,
        )
        if draw < POISON_FRAC:
            poison.add(spec.key())
        arrivals.append((at, spec))
    # Explicit duplicate submissions: same spec, possibly other tenant,
    # arriving later - must coalesce or hit the result cache.
    for _ in range(int(DUP_FRAC * space.jobs)):
        at, spec = arrivals[int(rng.integers(0, space.jobs))]
        dup = JobSpec(
            tenant=f"tenant-{int(rng.integers(0, TENANTS))}",
            kind=spec.kind, mode=spec.mode, size=spec.size,
            patch=spec.patch, grain=spec.grain, sn=spec.sn,
            seed=spec.seed, faults=spec.faults,
        )
        arrivals.append(
            (at + float(rng.uniform(0.0, BURST_GAP)), dup)
        )
    arrivals.sort(key=lambda x: x[0])
    return ServiceWorkload(
        config=cfg, arrivals=tuple(arrivals),
        poison_keys=frozenset(poison),
    )


# -- the oracle -----------------------------------------------------------------


def check_service_invariants(
    svc: SweepService, workload: ServiceWorkload
) -> list[str]:
    """Every violated service invariant, as human-readable strings."""
    bad: list[str] = []
    # Drain: nothing queued, in flight, or still holding credits.
    if svc._events:
        bad.append(f"{len(svc._events)} events still queued after drain")
    if any(q for q in svc._ready.values()):
        bad.append("non-empty tenant ready queue after drain")
    if svc._inflight:
        bad.append(f"{len(svc._inflight)} jobs still in flight")
    if svc.free_workers != svc.cfg.workers:
        bad.append("worker slots leaked")
    if svc.admission.total != 0 or any(svc.admission.held.values()):
        bad.append("admission credits leaked")
    # Accounting: every submission is either shed (a recorded
    # rejection) or accepted, and every accepted one gets exactly one
    # terminal record with a unique job id (no starvation, no dup).
    # Breaker rejections pass the admission controller first (and give
    # the credit back), so they count as submissions but not accepted.
    accepted = (
        svc.admission.submissions + svc.cache_hits - len(svc.rejections)
    )
    if len(svc.results) != accepted:
        bad.append(
            f"{accepted} accepted submissions but {len(svc.results)} "
            "terminal records"
        )
    if len(svc.arrivals_seen) != (len(svc.results) + len(svc.rejections)):
        bad.append("submission ledger does not balance")
    ids = [r.job_id for r in svc.results]
    if len(set(ids)) != len(ids):
        bad.append("duplicate job ids in terminal records")
    # Exactly-once: one commit per key; all completed records of a key
    # carry the committed CRC.
    crc: dict[str, int] = {}
    for r in svc.results:
        if r.status != JobStatus.COMPLETED:
            continue
        if r.key in crc:
            if r.flux_crc != crc[r.key]:
                bad.append(f"key {r.key}: divergent flux CRCs")
            if not r.cached:
                bad.append(f"key {r.key}: second non-cached completion")
        else:
            crc[r.key] = r.flux_crc
            if r.cached and r.key not in svc.committed:
                bad.append(f"key {r.key}: cached hit without a commit")
    # Correctness: completed jobs are exact; poison never completes.
    for r in svc.results:
        if r.status == JobStatus.COMPLETED:
            if r.key in workload.poison_keys:
                bad.append(f"poison job {r.job_id} completed")
            elif r.exact is not True:
                bad.append(f"job {r.job_id} completed inexact")
    return bad


# -- campaign -------------------------------------------------------------------


@dataclass
class ServiceCaseResult:
    """Outcome of one service-chaos campaign cell (one seed)."""

    seed: int
    ok: bool
    violations: list = field(default_factory=list)
    deterministic: bool = True
    metrics: dict = field(default_factory=dict)


def _run_once(
    workload: ServiceWorkload, executor: JobExecutor | None
) -> SweepService:
    svc = SweepService(workload.config, executor=executor)
    for at, spec in workload.arrivals:
        svc.submit(spec, at=at)
    svc.run_until_idle()
    return svc


def _fingerprint(svc: SweepService) -> str:
    return json.dumps(
        {
            "results": [r.to_dict() for r in svc.results],
            "rejections": svc.rejections,
        },
        sort_keys=True,
    )


def run_service_case(
    seed: int,
    space: ServiceChaosSpace = ServiceChaosSpace(),
    executor: JobExecutor | None = None,
) -> ServiceCaseResult:
    """One campaign cell: generate, run, check, replay.

    Passing a shared ``executor`` reuses scenario builds across cells
    (identity caching is per-scenario, not per-service); the replay
    leg shares it too, which additionally proves the scenario cache
    does not leak state between service instances.
    """
    workload = random_service_workload(seed, space)
    svc = _run_once(workload, executor)
    violations = check_service_invariants(svc, workload)
    replay = _run_once(workload, executor)
    deterministic = _fingerprint(svc) == _fingerprint(replay)
    if not deterministic:
        violations.append("replay diverged from first run")
    return ServiceCaseResult(
        seed=seed, ok=not violations, violations=violations,
        deterministic=deterministic, metrics=svc.metrics(),
    )


def run_service_campaign(
    seeds,
    space: ServiceChaosSpace = ServiceChaosSpace(),
) -> dict:
    """Run cells for all ``seeds`` with one shared executor.

    Returns the campaign summary; ``failures`` lists every failing
    cell's seed and violations so a red campaign replays from numbers
    alone.
    """
    executor = JobExecutor()
    cases = [run_service_case(s, space, executor) for s in seeds]
    agg: dict[str, float] = {}
    for c in cases:
        m = c.metrics
        agg["completed"] = agg.get("completed", 0) + m["completed"]
        agg["shed"] = agg.get("shed", 0) + sum(m["shed"].values())
        agg["failed"] = agg.get("failed", 0) + sum(m["failed"].values())
        agg["worker_crashes"] = (
            agg.get("worker_crashes", 0) + m["worker_crashes"]
        )
        agg["demotions"] = agg.get("demotions", 0) + m["demotions"]
        agg["cache_hits"] = agg.get("cache_hits", 0) + m["cache_hits"]
        agg["coalesced"] = agg.get("coalesced", 0) + m["coalesced"]
    return {
        "total": len(cases),
        "passed": sum(1 for c in cases if c.ok),
        "aggregate": agg,
        "failures": [
            {"seed": c.seed, "violations": c.violations}
            for c in cases if not c.ok
        ],
        "cases": cases,
    }
