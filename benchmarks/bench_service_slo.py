"""Service SLOs: throughput, tail latency and shed rate under load,
and one A/B pair per service mechanism.

Traffic regimes over seeded tenants on the sweep service (all virtual
time, one seed end to end):

* **baseline** - arrivals below capacity: nothing is shed, every job
  runs at full fidelity; this calibrates the clean p50/p99;
* **overload** - the same tenants arrive in bursts at several times
  capacity with degradation disabled: admission control sheds the
  overflow (bounded queues - that is the SLO being bought), and the
  jobs that are admitted queue behind full-fidelity runs;
* **overload+degrade** - same arrivals, graceful degradation armed:
  past the overload watermark new jobs run the demoted configuration
  (coarser clustering grain, larger patches), finishing faster and
  returning their admission credits sooner;
* **poison-tenant** / **poison-tenant+breaker** - a healthy tenant
  beside one whose every job stalls until its deadline; the first row
  sets a breaker threshold above the job count (never opens), the
  second arms the breaker at two consecutive failures;
* **noisy-neighbour** / **noisy-neighbour+credits** - a noisy tenant
  firing bursts that over-fill the global bound, and a meek one
  submitting two jobs at the end of each burst; the first row
  sets ``tenant_slots = global_slots`` (no per-tenant bound), the
  second holds each tenant to 4 credits;
* **worker-crash** - baseline arrivals on a pool whose workers crash
  one attempt in four (the chaos campaign's rate).

The check asserts what each mechanism is kept for: under identical
overload, demotion cuts the completed-jobs p99 latency and sheds no
more than the rigid service; the breaker cuts the healthy tenant's
p50; per-tenant credits cut the meek tenant's sheds; and crashed
attempts are retried to exact completions.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service_slo.py

Writes ``BENCH_service_slo.json`` at the repo root (override with
``--json``).  ``--smoke`` runs the CI-sized traffic; ``--trace`` dumps
one Chrome trace per executed job attempt and ``--check-hb`` replays
each attempt through the vector-clock happens-before checker.
"""

import json
import math
import os

import numpy as np

from repro.runtime import FaultPlan, LinkPartition
from repro.service import (
    JobExecutor, JobSpec, JobStatus, ServiceConfig, SweepService,
    WriteAheadLog,
)

from _common import bench_args, check_hb, print_series, write_chrome_trace

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_service_slo.json")

TENANTS = 4
FULL_JOBS = 48
SMOKE_JOBS = 16

#: One full-fidelity structured job's virtual makespan is ~0.9ms on
#: the 2-worker service -> capacity ~2.2 jobs/ms.  Baseline arrives at
#: ~1.1 jobs/ms; overload fires the same jobs in ~4x-capacity bursts.
BASELINE_SPACING = 0.9e-3
BURST_GAP = 2e-3
BURST_WIDTH = 0.5e-3

REGIMES = (
    "baseline", "overload", "overload+degrade",
    "poison-tenant", "poison-tenant+breaker",
    "noisy-neighbour", "noisy-neighbour+credits",
    "worker-crash",
)
#: The tenant an A/B pair is about: its own completions, sheds and p50
#: go into the row.
FOCUS = {"poison-tenant": "healthy", "noisy-neighbour": "meek"}


def _bursts(jobs: int) -> int:
    """~12 jobs per burst keeps the burst rate at ~4x capacity at any
    traffic size (smoke included)."""
    return max(2, round(jobs / 12))


def _config(name: str, jobs: int) -> ServiceConfig:
    kw = dict(workers=2, tenant_slots=4, global_slots=10, degrade_at=1.0,
              seed=1)
    if name == "overload+degrade":
        kw["degrade_at"] = 0.5
    elif name == "poison-tenant":
        kw["breaker_threshold"] = jobs + 1  # can never open
    elif name == "poison-tenant+breaker":
        kw["breaker_threshold"] = 2
    elif name == "noisy-neighbour":
        kw["tenant_slots"] = kw["global_slots"]  # no per-tenant bound
    elif name == "worker-crash":
        kw["worker_crash_rate"] = 0.25
    return ServiceConfig(**kw)


def _arrivals(seed: int, jobs: int, overload: bool):
    """Seeded traffic: (time, spec) per job, identical specs across
    regimes - only the arrival process changes."""
    rng = np.random.default_rng((seed, 4242))
    out = []
    for j in range(jobs):
        tenant = f"tenant-{int(rng.integers(0, TENANTS))}"
        spec = JobSpec(tenant=tenant, seed=int(rng.integers(0, 2**20)))
        if overload:
            burst = int(rng.integers(0, _bursts(jobs)))
            at = burst * BURST_GAP + float(rng.uniform(0.0, BURST_WIDTH))
        else:
            at = j * BASELINE_SPACING + float(
                rng.uniform(0.0, 0.25 * BASELINE_SPACING)
            )
        out.append((at, spec))
    out.sort(key=lambda x: x[0])
    return out


def _poison_arrivals(seed: int, jobs: int):
    """Alternating healthy and poison jobs at the baseline rate.  A
    poison job's 0<->1 link never heals, so it stalls until its
    deadline: without the breaker each one holds a worker ~5x as long
    as a healthy job."""
    rng = np.random.default_rng((seed, 4243))
    out = []
    for j in range(jobs):
        faults = None
        if j % 2:
            faults = FaultPlan(
                partitions=(LinkPartition(0, 1, 0.0, math.inf),),
                seed=int(rng.integers(0, 2**20)),
            )
        spec = JobSpec(tenant="poison" if j % 2 else "healthy",
                       seed=int(rng.integers(0, 2**20)), faults=faults)
        at = j * BASELINE_SPACING + float(
            rng.uniform(0.0, 0.25 * BASELINE_SPACING)
        )
        out.append((at, spec))
    out.sort(key=lambda x: x[0])
    return out


def _noisy_arrivals(seed: int, jobs: int):
    """One burst per 16 jobs, each over-filling the global backlog
    bound on its own; the meek tenant submits two jobs at the end of
    every burst and the noisy tenant all the others inside it."""
    rng = np.random.default_rng((seed, 4244))
    bursts = max(1, jobs // 16)
    out = []
    for j in range(jobs):
        start = (j % bursts) * BURST_GAP
        if j < 2 * bursts:
            tenant, at = "meek", start + BURST_WIDTH
        else:
            tenant = "noisy"
            at = start + float(rng.uniform(0.0, BURST_WIDTH))
        out.append((at, JobSpec(tenant=tenant,
                                seed=int(rng.integers(0, 2**20)))))
    out.sort(key=lambda x: x[0])
    return out


def _traffic(name: str, seed: int, jobs: int):
    if name.startswith("poison-tenant"):
        return _poison_arrivals(seed, jobs)
    if name.startswith("noisy-neighbour"):
        return _noisy_arrivals(seed, jobs)
    return _arrivals(seed, jobs, overload=name.startswith("overload"))


def _percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(np.array(xs), q)) if xs else 0.0


def run_regime(name: str, seed: int, jobs: int,
               executor: JobExecutor, wal_dir: str | None = None) -> dict:
    wal = None
    if wal_dir is not None:
        # Durability instrumentation: journal every service transition
        # (submission, attempt, commit, terminal, reject) to a
        # write-ahead log and report its record/byte cost per regime.
        wal = WriteAheadLog(
            os.path.join(wal_dir, f"{name.replace('+', '_')}.wal"),
            fsync=False,
        )
    svc = SweepService(_config(name, jobs), executor=executor, wal=wal)
    for at, spec in _traffic(name, seed, jobs):
        svc.submit(spec, at=at)
    results = svc.run_until_idle()
    done = [r for r in results if r.status == JobStatus.COMPLETED]
    lat = [r.latency for r in done]
    m = svc.metrics()
    wal_cost = {}
    if wal is not None:
        wal_cost = {
            "wal_records": wal.records,
            "wal_bytes": wal.bytes_written,
        }
        wal.close()
    row = {
        **wal_cost,
        "regime": name,
        "jobs": jobs,
        "completed": len(done),
        "failed": sum(m["failed"].values()),
        "shed": sum(m["shed"].values()),
        "shed_rate": m["shed_rate"],
        "demotions": m["demotions"],
        "exact": all(r.exact for r in done),
        "span": svc.now,
        "jobs_per_sec": len(done) / svc.now if svc.now > 0 else 0.0,
        "p50_latency": _percentile(lat, 50),
        "p99_latency": _percentile(lat, 99),
    }
    focus = FOCUS.get(name.split("+")[0])
    if focus is not None:
        mine = [r for r in done if r.tenant == focus]
        row.update({
            "tenant": focus,
            "tenant_completed": len(mine),
            "tenant_shed": sum(
                1 for d in svc.rejections if d["tenant"] == focus
            ),
            "tenant_p50_latency": _percentile(
                [r.latency for r in mine], 50
            ),
            "breaker_trips": sum(m["breaker_trips"].values()),
        })
    if name == "worker-crash":
        row.update({
            "worker_crashes": m["worker_crashes"],
            "retried_to_completion": sum(1 for r in done if r.attempts > 1),
        })
    return row


def run_matrix(jobs: int = FULL_JOBS, seed: int = 0,
               wal_dir: str | None = None,
               trace_dir: str | None = None, hb=None) -> list[dict]:
    # Scenario cache shared across regimes.  --trace / --check-hb arm
    # event tracing on every attempt's runtime: each clean attempt's
    # report is exported as a Chrome trace and/or replayed through the
    # vector-clock checker (a race aborts the benchmark).
    executor = JobExecutor(trace=trace_dir is not None or hb is not None)
    if executor.trace:
        seq = iter(range(1_000_000))

        def _export(spec, rep):
            label = f"service_{spec.kind}_{spec.mode}_job{next(seq)}"
            if trace_dir is not None:
                write_chrome_trace(rep, label, trace_dir)
            check_hb(rep, label, hb)

        executor.on_report = _export
    return [
        run_regime(name, seed, jobs, executor, wal_dir=wal_dir)
        for name in REGIMES
    ]


def report(rows: list[dict]) -> None:
    table = [
        [
            r["regime"], r["jobs"], r["completed"], r["failed"], r["shed"],
            f"{100.0 * r['shed_rate']:.0f}%", r["demotions"],
            f"{r['jobs_per_sec'] / 1e3:.2f}k/s",
            f"{r['p50_latency'] * 1e3:.2f}ms",
            f"{r['p99_latency'] * 1e3:.2f}ms",
        ]
        for r in rows
    ]
    print_series(
        "Service SLOs per traffic regime (virtual time, seeded tenants)",
        ["regime", "jobs", "done", "failed", "shed", "shed%", "demoted",
         "throughput", "p50", "p99"],
        table,
    )
    print_series(
        "Mechanism A/B - the tenant each pair is about",
        ["regime", "tenant", "done", "shed", "p50", "breaker trips"],
        [
            [r["regime"], r["tenant"], r["tenant_completed"],
             r["tenant_shed"], f"{r['tenant_p50_latency'] * 1e3:.2f}ms",
             r["breaker_trips"]]
            for r in rows if "tenant" in r
        ],
    )


def check(rows: list[dict]) -> None:
    by = {r["regime"]: r for r in rows}
    base, over, deg = (
        by["baseline"], by["overload"], by["overload+degrade"]
    )
    # Nothing computed wrong anywhere, every accepted job resolved, and
    # only the poison tenant's jobs fail.
    for r in rows:
        assert r["exact"], f"{r['regime']}: inexact completed flux"
        assert r["completed"] + r["failed"] + r["shed"] == r["jobs"], (
            f"{r['regime']}: job ledger does not add up"
        )
        if not r["regime"].startswith("poison-tenant"):
            assert r["failed"] == 0, f"{r['regime']}: unexpected failures"
    # Under capacity nothing is shed; overload sheds and stretches p99.
    assert base["shed"] == 0, "baseline traffic was shed"
    assert over["shed"] > 0, "overload regime never shed"
    assert over["p99_latency"] > base["p99_latency"], (
        "overload did not stretch tail latency"
    )
    # The degradation trade: demotion fired, cut the overloaded p99,
    # and answered at least as many jobs as the rigid service.
    assert deg["demotions"] > 0, "degradation never engaged"
    assert deg["p99_latency"] < over["p99_latency"], (
        f"degradation did not cut p99: {deg['p99_latency']:.6f}s vs "
        f"{over['p99_latency']:.6f}s"
    )
    assert deg["completed"] >= over["completed"], (
        "degradation answered fewer jobs than the rigid service"
    )
    # The breaker: quarantining the poison tenant frees the workers its
    # stalls held, so the healthy tenant's p50 falls.
    poison, breaker = by["poison-tenant"], by["poison-tenant+breaker"]
    assert poison["breaker_trips"] == 0 < breaker["breaker_trips"]
    assert breaker["tenant_p50_latency"] < poison["tenant_p50_latency"], (
        "the breaker did not cut the healthy tenant's p50"
    )
    assert breaker["tenant_completed"] >= poison["tenant_completed"]
    # Per-tenant credits: the noisy tenant can no longer fill the
    # global bound, so the meek tenant is shed less.
    noisy, credits = by["noisy-neighbour"], by["noisy-neighbour+credits"]
    assert credits["tenant_shed"] < noisy["tenant_shed"], (
        "per-tenant credits did not cut the meek tenant's sheds"
    )
    # Retry: crashed attempts come back as exact completions.
    crash = by["worker-crash"]
    assert crash["worker_crashes"] > 0, "no worker crashed"
    assert crash["retried_to_completion"] > 0, "no crash was retried"


try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="service")
    def test_service_slo(benchmark):
        rows = benchmark.pedantic(
            run_matrix, kwargs={"jobs": SMOKE_JOBS}, rounds=1, iterations=1
        )
        report(rows)
        check(rows)


if __name__ == "__main__":
    args = bench_args(
        "Service SLOs: throughput, p50/p99 latency and shed rate for "
        "baseline vs overload vs overload-with-degradation traffic, and "
        "one A/B pair per service mechanism (breaker, per-tenant "
        "credits, crash retry) on the multi-tenant sweep service",
        extra=lambda ap: (
            ap.add_argument("--json", metavar="PATH", default=JSON_PATH,
                            help="where to write the JSON summary"),
        ),
    )
    jobs = SMOKE_JOBS if args.smoke else FULL_JOBS
    if args.snapshot_every:
        # The service's durability unit is the WAL record, not an event
        # cadence: the flag arms journaling and the JSON rows carry
        # wal_records / wal_bytes per regime.
        import tempfile

        with tempfile.TemporaryDirectory() as wal_dir:
            rows = run_matrix(jobs=jobs, wal_dir=wal_dir,
                              trace_dir=args.trace, hb=args.check_hb)
    else:
        rows = run_matrix(jobs=jobs, trace_dir=args.trace,
                          hb=args.check_hb)
    report(rows)
    check(rows)
    out = os.path.normpath(args.json)
    with open(out, "w") as fh:
        json.dump({"rows": rows}, fh, indent=1)
    print(f"\nsummary: {out}")
    by = {r["regime"]: r for r in rows}
    over, deg = by["overload"], by["overload+degrade"]
    cut = 100.0 * (1.0 - deg["p99_latency"] / over["p99_latency"])
    print(f"service SLO: OK (degradation cut overloaded p99 by "
          f"{cut:.0f}%, shed {100 * deg['shed_rate']:.0f}% vs "
          f"{100 * over['shed_rate']:.0f}%)")
    p50 = [by[n]["tenant_p50_latency"] * 1e3
           for n in ("poison-tenant", "poison-tenant+breaker")]
    sheds = [by[n]["tenant_shed"]
             for n in ("noisy-neighbour", "noisy-neighbour+credits")]
    print(f"mechanisms: OK (breaker: healthy p50 {p50[0]:.2f} -> "
          f"{p50[1]:.2f} ms; credits: meek sheds {sheds[0]} -> "
          f"{sheds[1]}; retry: "
          f"{by['worker-crash']['retried_to_completion']} crashed jobs "
          f"completed)")