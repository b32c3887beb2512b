"""Sweep-as-a-service unit tests: specs and content identity,
admission credits, circuit breakers, the executor's outcome taxonomy,
and the service loop end to end (fair share, dedup, retries,
deadlines, degradation, exactly-once commit, determinism).

All jobs use the tiny size=4 structured scenario; one module-level
executor shares the built scenario across tests.
"""

import json
import math

import pytest

from repro._util import ReproError
from repro.chaos import build_scenario
from repro.runtime import DataDrivenRuntime, FaultPlan, LinkPartition
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    FailureReason,
    JobExecutor,
    JobRejected,
    JobSpec,
    JobStatus,
    RejectReason,
    ServiceConfig,
    SweepService,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.service import MAX_ATTEMPTS
from repro.sweep.solver import OrderRecord


def _spec(tenant="t", **kw):
    kw.setdefault("size", 4)
    return JobSpec(tenant=tenant, **kw)


def _poison(seed=1):
    """A plan that can never finish: the 0->1 link never heals."""
    return FaultPlan(
        partitions=(LinkPartition(0, 1, 0.0, math.inf),), seed=seed
    )


@pytest.fixture(scope="module")
def executor():
    return JobExecutor()


def _service(executor, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("tenant_slots", 8)
    kw.setdefault("global_slots", 16)
    return SweepService(ServiceConfig(**kw), executor=executor)


# -- specs and content identity --------------------------------------------------


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ReproError, match="tenant"):
            JobSpec(tenant="")
        with pytest.raises(ReproError, match="kind"):
            JobSpec(tenant="t", kind="moebius")
        with pytest.raises(ReproError, match="mode"):
            JobSpec(tenant="t", mode="openmp")
        with pytest.raises(ReproError, match="sn"):
            JobSpec(tenant="t", sn=3)
        with pytest.raises(ReproError, match="deadline"):
            JobSpec(tenant="t", deadline=0.0)

    @pytest.mark.parametrize("grain", [1.5, 0.5, True, False])
    def test_grain_must_be_a_positive_integer(self, grain):
        """A fractional grain never counts a run's pop budget down to
        zero, so every run would pop its whole ready heap; a bool is no
        count.  Refused at the spec, not deep in a run."""
        with pytest.raises(ReproError, match="grain"):
            JobSpec(tenant="t", grain=grain)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("size", 8.5),
            ("patch", 2.5),
            ("patch", 2.0),
            ("sn", 4.0),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        """Unrefused, size=8.5 runs silently, patch=2.5 and sn=4.0 raise
        a bare TypeError inside the executor (outside the service's
        failure taxonomy), and patch=2.0 hashes apart from patch=2, so
        identical jobs are neither coalesced nor cached."""
        with pytest.raises(ReproError, match=f"{field}={value!r}"):
            JobSpec(tenant="t", **{field: value})

    def test_nan_deadline_is_refused_and_inf_is_no_budget(self):
        # NaN compares false against every budget check: it would
        # silently disable the deadline.
        with pytest.raises(ReproError, match="deadline=nan"):
            JobSpec(tenant="t", deadline=float("nan"))
        assert JobSpec(tenant="t", deadline=float("inf")).deadline == float("inf")

    def test_key_ignores_tenant_and_deadline(self):
        a = _spec("alice", deadline=1e-3)
        b = _spec("bob", deadline=9e-3)
        assert a.key() == b.key()

    def test_key_covers_content_fields(self):
        base = _spec()
        assert base.key() != _spec(seed=1).key()
        assert base.key() != _spec(grain=32).key()
        assert base.key() != _spec(faults=_poison()).key()
        assert _spec(faults=_poison(1)).key() != _spec(
            faults=_poison(2)).key()

    def test_demoted_only_coarsens(self):
        d = _spec(grain=16, patch=2).demoted(64, 4)
        assert (d.grain, d.patch) == (64, 4)
        # Already-coarse specs never get *finer*.
        d2 = _spec(grain=128, patch=8).demoted(64, 4)
        assert (d2.grain, d2.patch) == (128, 8)

    def test_rejection_is_structured(self):
        r = JobRejected(RejectReason.BREAKER_OPEN, 2e-3, "t", detail="x")
        d = r.to_dict()
        assert d["reason"] == RejectReason.BREAKER_OPEN
        assert d["retry_after"] == 2e-3
        assert "retry in" in str(r)


# -- service config --------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("breaker_open_for", float("nan")),
        ("global_slots", float("nan")),
        ("default_deadline", float("nan")),
        ("workers", 2.5),
        ("workers", True),
        ("tenant_slots", 2.5),
        ("breaker_threshold", 1.5),
    ],
)
def test_config_refuses_nan_and_fractional_values(field, value):
    """NaN compares false against every bound, so a NaN
    ``breaker_open_for`` quarantined a tenant forever and a NaN
    ``global_slots`` or ``default_deadline`` passed for a budget; a
    fractional or bool count is no count."""
    with pytest.raises(ReproError, match=f"{field}="):
        ServiceConfig(**{field: value})


def test_config_takes_inf_as_no_budget():
    cfg = ServiceConfig(default_deadline=math.inf, breaker_open_for=math.inf)
    assert cfg.default_deadline == cfg.breaker_open_for == math.inf


# -- admission credits -----------------------------------------------------------


class TestAdmission:
    def test_tenant_bound_sheds_with_hint(self):
        ac = AdmissionController(2, 8)
        ac.admit("a", 0.0)
        ac.admit("a", 0.0)
        with pytest.raises(JobRejected) as ei:
            ac.admit("a", 0.0)
        assert ei.value.reason == RejectReason.TENANT_QUEUE_FULL
        assert ei.value.retry_after == 2 * 1e-3  # backlog of 2 ahead
        # Another tenant still has its own window.
        ac.admit("b", 0.0)

    def test_global_bound_sheds_everyone(self):
        ac = AdmissionController(2, 3)
        ac.admit("a", 0.0)
        ac.admit("a", 0.0)
        ac.admit("b", 0.0)
        with pytest.raises(JobRejected) as ei:
            ac.admit("c", 0.0)
        assert ei.value.reason == RejectReason.SERVICE_OVERLOADED
        assert ac.shed() == 1 and ac.submissions == 4

    def test_release_frees_capacity_and_guards_underflow(self):
        ac = AdmissionController(1, 8)
        ac.admit("a", 0.0)
        ac.release("a")
        ac.admit("a", 1.0)  # credit came back
        with pytest.raises(ReproError, match="holds none"):
            ac.release("ghost")


# -- circuit breaker -------------------------------------------------------------


class TestBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        br = CircuitBreaker(threshold=3, open_for=1.0)
        for t in range(2):
            br.on_failure(float(t))
            assert br.state == CLOSED
        br.on_success(2.0)  # resets the count
        br.on_failure(3.0)
        br.on_failure(4.0)
        assert br.state == CLOSED
        br.on_failure(5.0)
        assert br.state == OPEN and br.trips == 1
        assert not br.allow(5.5)
        assert br.retry_after(5.5) == pytest.approx(0.5)

    def test_half_open_probe_closes_on_success(self):
        br = CircuitBreaker(threshold=1, open_for=1.0)
        br.on_failure(0.0)
        assert br.allow(1.0)  # cool-down elapsed: one canary admitted
        assert br.state == HALF_OPEN
        assert not br.allow(1.0)  # probe budget spent
        br.on_success(1.5)
        assert br.state == CLOSED and br.allow(1.5)

    def test_half_open_probe_failure_reopens(self):
        br = CircuitBreaker(threshold=1, open_for=1.0)
        br.on_failure(0.0)
        assert br.allow(1.0)
        br.on_failure(1.5)
        assert br.state == OPEN and br.trips == 2
        assert not br.allow(2.0)  # new cool-down runs from t=1.5


# -- executor outcomes -----------------------------------------------------------


class TestExecutor:
    def test_clean_run_is_exact(self, executor):
        o = executor.execute(_spec(), None)
        assert o.status == "ok" and o.exact is True
        assert o.flux_crc is not None and o.duration == o.makespan > 0

    def test_scenario_cache_shares_builds(self, executor):
        before = executor.scenario_builds
        executor.execute(_spec(seed=7), None)
        executor.execute(_spec(seed=8), None)
        assert executor.scenario_builds == before  # same build_fields

    @pytest.mark.parametrize("kind, size, patch, builds", [
        ("structured", 8, 2, 1),
        ("unstructured", 4, 10, 1),  # 11 patches: no mode's floor binds
        ("unstructured", 4, 20, 2),  # 6 patches: MPI-only's 8 procs bind
    ])
    def test_modes_share_one_scenario_build(self, kind, size, patch, builds):
        """Hybrid and MPI-only jobs on one mesh differ only in their
        process layout, so they share one build - unless the MPI-only
        process count is a patch-count floor the shared build lacks.
        Each run equals a build for its own mode, and the two jobs keep
        distinct idempotency keys."""
        ex = JobExecutor()
        specs = [_spec(kind=kind, size=size, patch=patch, mode=m)
                 for m in ("hybrid", "mpi_only")]
        assert specs[0].key() != specs[1].key()
        outs = [ex.execute(s, None) for s in specs]
        assert (ex.scenario_builds, ex.scenario_hits) == (builds, 2 - builds)
        for spec, o in zip(specs, outs):
            assert o.status == "ok" and o.exact is True
            machine, cores, pset, solver = build_scenario(
                kind, spec.mode, size, patch=patch, sn=spec.sn,
                grain=spec.grain)
            progs, _ = solver.build_programs()
            rep = DataDrivenRuntime(cores, machine=machine, mode=spec.mode) \
                .run(progs, pset.patch_proc)
            assert rep.makespan.hex() == o.makespan.hex()

    def test_deadline_cancels_with_consumed_slice(self, executor):
        full = executor.execute(_spec(), None).makespan
        o = executor.execute(_spec(), full / 2)
        assert o.status == "deadline"
        assert o.duration == full / 2  # the whole budget was consumed
        assert "cancelled" in o.detail

    def test_out_of_order_run_is_an_inexact_attempt(self, executor, monkeypatch):
        """A run whose order record breaks the sweep DAG (here every run
        stamps its cells in reverse pop order) is a finished, non-exact
        attempt naming the violation - not an exception out of the
        service."""
        real = OrderRecord.stamp
        monkeypatch.setattr(OrderRecord, "stamp",
                            lambda self, cells, angle: real(self, cells[::-1], angle))
        o = executor.execute(_spec(), None)
        assert o.status == "ok" and o.exact is False and o.flux_crc is None
        assert "sweep order" in o.detail and o.duration == o.makespan > 0

    def test_stall_attaches_structured_report(self, executor):
        o = executor.execute(_spec(faults=_poison()), None)
        assert o.status == "stall"
        assert o.stall is not None and o.stall["pending_events"] >= 0
        assert o.stall["lost"], "never-healing cut must show lost edges"


# -- the service loop ------------------------------------------------------------


class TestService:
    def test_jobs_complete_exact_with_latency(self, executor):
        svc = _service(executor)
        svc.submit(_spec(seed=1), at=0.0)
        svc.submit(_spec(seed=2), at=1e-5)
        res = svc.run_until_idle()
        assert [r.status for r in res] == [JobStatus.COMPLETED] * 2
        assert all(r.exact and r.latency > 0 for r in res)

    def test_fair_share_interleaves_tenants(self, executor):
        svc = _service(executor, workers=1)
        for i in range(3):
            svc.submit(_spec("hog", seed=10 + i), at=0.0)
        for i in range(3):
            svc.submit(_spec("meek", seed=20 + i), at=0.0)
        order = [r.tenant for r in svc.run_until_idle()]
        # The first hog job dispatched before meek existed; from then
        # on the single worker alternates tenants round-robin, even
        # though every hog job was submitted first.
        assert order == ["hog", "hog", "meek", "hog", "meek", "meek"]

    def test_duplicate_in_flight_coalesces(self, executor):
        svc = _service(executor)
        svc.submit(_spec("a", seed=30), at=0.0)
        svc.submit(_spec("b", seed=30), at=0.0)  # same content hash
        res = svc.run_until_idle()
        assert len(res) == 2 and len(svc.committed) == 1
        primary, follower = res
        assert not primary.cached and follower.cached
        assert follower.flux_crc == primary.flux_crc
        assert svc.coalesced == 1

    def test_repeat_after_commit_hits_cache(self, executor):
        svc = _service(executor)
        svc.submit(_spec(seed=31), at=0.0)
        svc.run_until_idle()
        svc.submit(_spec("other", seed=31), at=svc.now)
        res = svc.run_until_idle()
        hit = res[-1]
        assert hit.cached and hit.latency == 0.0 and svc.cache_hits == 1

    def test_worker_crash_is_retried_to_completion(self, executor):
        # seed chosen so the first two draws crash and the third, the
        # last attempt of the budget, does not.
        svc = _service(executor, workers=1, worker_crash_rate=0.6, seed=6)
        svc.submit(_spec(seed=32), at=0.0)
        res = svc.run_until_idle()
        assert res[0].status == JobStatus.COMPLETED and res[0].exact
        assert res[0].attempts == MAX_ATTEMPTS and svc.worker_crashes == 2

    def test_retry_budget_exhaustion_fails_structured(self, executor):
        svc = _service(executor, workers=1, worker_crash_rate=0.999,
                       seed=0)
        svc.submit(_spec(seed=33), at=0.0)
        res = svc.run_until_idle()
        assert res[0].status == JobStatus.FAILED
        assert res[0].reason == FailureReason.WORKER_CRASH
        assert res[0].attempts == MAX_ATTEMPTS

    def test_deadline_failure_is_terminal_not_retried(self, executor):
        svc = _service(executor, default_deadline=5e-5)  # < makespan
        svc.submit(_spec(seed=34), at=0.0)
        res = svc.run_until_idle()
        assert res[0].status == JobStatus.FAILED
        assert res[0].reason == FailureReason.DEADLINE
        assert res[0].attempts == 1  # deterministic failure: fail fast

    def test_stall_failure_carries_report(self, executor):
        # Budget beyond the shared executor's 5ms watchdog horizon, so
        # the stall is *diagnosed* rather than deadline-cancelled.
        svc = _service(executor, default_deadline=20e-3)
        svc.submit(_spec(seed=35, faults=_poison()), at=0.0)
        res = svc.run_until_idle()
        assert res[0].reason == FailureReason.STALL
        assert res[0].stall is not None and res[0].stall["lost"]

    def test_breaker_quarantines_failing_tenant(self, executor):
        svc = _service(executor, breaker_threshold=2,
                       breaker_open_for=50e-3)
        # Two failures spaced out, then a submission while open.
        svc.submit(_spec("evil", seed=36, faults=_poison()), at=0.0)
        svc.submit(_spec("evil", seed=37, faults=_poison()), at=5e-3)
        svc.submit(_spec("good", seed=38), at=12e-3)
        svc.submit(_spec("evil", seed=39), at=12e-3)
        res = svc.run_until_idle()
        assert [r for r in res if r.tenant == "good"][0].status == (
            JobStatus.COMPLETED
        )
        assert len(svc.rejections) == 1
        rej = svc.rejections[0]
        assert rej["reason"] == RejectReason.BREAKER_OPEN
        assert rej["tenant"] == "evil" and rej["retry_after"] > 0

    def test_breaker_rejection_is_not_admitted(self, executor):
        """A breaker rejection holds a credit only for the check: it is
        reported shed, never admitted."""
        svc = _service(executor, breaker_threshold=2,
                       breaker_open_for=50e-3)
        svc.submit(_spec("evil", seed=36, faults=_poison()), at=0.0)
        svc.submit(_spec("evil", seed=37, faults=_poison()), at=5e-3)
        svc.submit(_spec("good", seed=38), at=12e-3)
        svc.submit(_spec("evil", seed=39), at=12e-3)
        res = svc.run_until_idle()
        m = svc.metrics()
        assert m["submissions"] == 4
        assert m["shed"][RejectReason.BREAKER_OPEN] == 1
        assert m["admitted"] == len(res) == 3

    def test_degradation_past_watermark(self, executor):
        # size=8: the demoted 4x4x4-cell patches need a mesh that
        # splits into at least one patch per process (4).
        svc = _service(executor, workers=1, degrade_at=0.25,
                       tenant_slots=8, global_slots=8)
        for i in range(6):
            svc.submit(_spec(seed=40 + i, size=8), at=0.0)
        res = svc.run_until_idle()
        demoted = [r for r in res if r.demoted]
        assert demoted and all("grain" in r.demote_note for r in demoted)
        assert all(r.status == JobStatus.COMPLETED for r in res)
        # Demotion changes fidelity, never identity: results commit
        # under the *submitted* spec's key.
        assert len(svc.committed) == 6

    def test_replay_is_bitwise_identical(self, executor):
        def run():
            svc = _service(executor, worker_crash_rate=0.3, seed=5,
                           tenant_slots=2, global_slots=4)
            for i in range(8):
                svc.submit(_spec(f"t{i % 3}", seed=50 + i), at=i * 1e-4)
            svc.run_until_idle()
            return json.dumps(
                {"r": [r.to_dict() for r in svc.results],
                 "rej": svc.rejections},
                sort_keys=True,
            )

        assert run() == run()

    def test_submit_in_the_past_rejected(self, executor):
        svc = _service(executor)
        svc.submit(_spec(seed=60), at=1e-3)
        svc.run_until_idle()
        with pytest.raises(ReproError, match="service time"):
            svc.submit(_spec(seed=61), at=0.0)

    @pytest.mark.parametrize("at", [math.nan, math.inf])
    def test_submit_at_a_non_finite_time_rejected(self, executor, at):
        svc = _service(executor)
        with pytest.raises(ReproError, match="finite"):
            svc.submit(_spec(seed=62), at=at)
        assert svc.run_until_idle() == [] and svc.now == 0.0

    def test_metrics_ledger_balances(self, executor):
        svc = _service(executor, tenant_slots=2, global_slots=4)
        for i in range(7):
            svc.submit(_spec(seed=70 + i), at=0.0)
        svc.run_until_idle()
        m = svc.metrics()
        assert m["submissions"] == 7
        assert len(svc.arrivals_seen) == (
            len(svc.results) + len(svc.rejections)
        )
        assert m["completed"] == len(svc.committed)
