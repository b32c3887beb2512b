"""Chaos campaign: seeded random fault-space search (robustness tier 2).

Runs N seeded random fault plans - mixing crashes with cascades,
stragglers, timed link partitions, and drop/duplicate/corrupt message
fates - over the {structured, unstructured} x {hybrid, mpi_only}
scenario matrix, with the invariant sanitizer armed on every run.

Every cell is held to the bitwise-exactness oracle: the faulty run's
flux must equal the fault-free reference byte for byte, and the run
must terminate without a stall (no send un-acked past the give-up age,
no :class:`StallError`).  Anything
less is a recovery bug, not a degraded result.

Seed-reproducibility contract: a cell's fault plan is a pure function
of ``(seed, nprocs)``; re-running a failing seed replays its exact
fault sequence on any machine (see :mod:`repro.chaos`).

Run standalone (used by CI as a smoke job)::

    PYTHONPATH=src python benchmarks/bench_chaos_campaign.py --smoke

``--seeds N`` sizes the campaign (default 50; smoke uses 10),
``--json PATH`` writes the per-campaign JSON summary, ``--demotion``
arms degraded-mode demotion on every case - against the same oracle,
since migrating a slow rank's patches must never cost exactness.
Every reliable case runs the RTT-estimated retransmit timer; there is
no switch for it.  ``--flapping``
extends the fault space with crash-restart-crash sequences and
``--membership`` arms the elastic-membership subsystem (heartbeat
detection instead of the oracle, incarnation fencing, restart/rejoin -
DESIGN.md §14) on every case, again against the same oracle.
``--check-hb [DIR]`` additionally holds every completed case to the
vector-clock happens-before checker (any race fails the cell; with
DIR, each case's HB record stream is exported for ``repro.analysis
check-trace``).
"""

from repro.chaos import KINDS, MODES, ChaosSpace, run_campaign

from _common import bench_args, print_series

FULL_SEEDS = 50
SMOKE_SEEDS = 10


def run_chaos_campaign(seeds: int = FULL_SEEDS, intensity: float = 0.5,
                       size: int = 8, demotion: bool = False, hb=None,
                       flapping: bool = False, membership: bool = False):
    return run_campaign(
        range(seeds),
        space=ChaosSpace(intensity=intensity, flapping=flapping),
        size=size,
        demotion=demotion, hb=hb,
        membership=membership,
    )


def report(res) -> None:
    rows = []
    for kind in KINDS:
        for mode in MODES:
            cell = [c for c in res.cases if c.kind == kind and c.mode == mode]
            agg = {}
            for c in cell:
                for k, v in c.faults.items():
                    agg[k] = agg.get(k, 0) + v
            rows.append([
                f"{kind}-{mode}",
                len(cell),
                sum(1 for c in cell if c.ok),
                sum(1 for c in cell if c.stalled),
                agg.get("crashes", 0),
                agg.get("cascade_crashes", 0),
                agg.get("partition_drops", 0),
                agg.get("corruptions", 0),
                agg.get("retries", 0),
            ])
    print_series(
        "Chaos campaign - seeded random fault plans, bitwise-exact oracle",
        ["scenario", "cases", "exact", "stalls", "crashes", "cascaded",
         "partitioned", "corrupted", "retries"],
        rows,
    )
    for c in res.failures():
        print(f"  FAILED {c.kind}-{c.mode} seed={c.seed} "
              f"stalled={c.stalled} {c.error[:200]}")


def check(res, demotion: bool = False, flapping: bool = False,
          membership: bool = False) -> None:
    # The headline robustness claim: every seeded fault mix recovers to
    # bitwise-exact flux, with zero stalls.
    assert res.passed == res.total, (
        f"{res.total - res.passed} of {res.total} chaos cases failed"
    )
    assert res.stalls == 0, f"{res.stalls} stalls"
    # The campaign actually exercised the fault machinery.
    agg = res.summary()["fault_totals"]
    assert agg.get("crashes", 0) > 0
    assert agg.get("retries", 0) > 0
    assert agg.get("rtt_samples", 0) > 0, "the RTT estimator never sampled"
    if demotion:
        # ... and demotion, when armed, actually fired.
        assert agg.get("demotions", 0) > 0, "demotion campaign never demoted"
    if membership:
        # Detection ran oracle-free; with flapping, ranks came back.
        mtot = {}
        for c in res.cases:
            for k, v in c.membership.items():
                mtot[k] = mtot.get(k, 0) + v
        assert mtot.get("heartbeats", 0) > 0, "heartbeat plane never ran"
        assert mtot.get("suspicions", 0) > 0, "no crash was ever detected"
        if flapping:
            assert mtot.get("restarts", 0) > 0, "no rank ever restarted"
            assert mtot.get("rejoins", 0) > 0, "no rank ever rejoined"


try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="chaos")
    def test_chaos_campaign(benchmark):
        res = benchmark.pedantic(
            run_chaos_campaign, kwargs={"seeds": SMOKE_SEEDS},
            rounds=1, iterations=1,
        )
        report(res)
        check(res)

    @pytest.mark.benchmark(group="chaos")
    def test_chaos_campaign_demotion(benchmark):
        res = benchmark.pedantic(
            run_chaos_campaign,
            kwargs={"seeds": SMOKE_SEEDS, "demotion": True},
            rounds=1, iterations=1,
        )
        report(res)
        check(res, demotion=True)


if __name__ == "__main__":
    args = bench_args(
        "Chaos campaign: N seeded random fault plans over the scenario "
        "matrix, asserting bitwise-exact recovery (--smoke for the "
        "CI-sized campaign, --json to write the summary)",
        extra=lambda ap: (
            ap.add_argument("--seeds", type=int, default=None,
                            help="campaign size (default 50; smoke 10)"),
            ap.add_argument("--json", metavar="PATH", default=None,
                            help="write the per-campaign JSON summary"),
            ap.add_argument("--intensity", type=float, default=0.5,
                            help="fault-space intensity in (0, 1]"),
            ap.add_argument("--demotion", action="store_true",
                            help="arm degraded-mode demotion on every case"),
            ap.add_argument("--flapping", action="store_true",
                            help="extend the fault space with crash-"
                                 "restart-crash (flapping) sequences"),
            ap.add_argument("--membership", action="store_true",
                            help="arm elastic membership on every case "
                                 "(heartbeat detection, incarnation "
                                 "fencing, restart/rejoin)"),
        ),
    )
    seeds = args.seeds if args.seeds is not None else (
        SMOKE_SEEDS if args.smoke else FULL_SEEDS
    )
    res = run_chaos_campaign(seeds=seeds, intensity=args.intensity,
                             demotion=args.demotion, hb=args.check_hb,
                             flapping=args.flapping,
                             membership=args.membership)
    report(res)
    if args.check_hb is not None:
        print(f"hb: {res.total} campaign runs checked, "
              f"{sum(c.races for c in res.cases)} race(s)")
    check(res, demotion=args.demotion, flapping=args.flapping,
          membership=args.membership)
    if args.json:
        res.to_json(args.json)
        print(f"summary: {args.json}")
    print(f"\nchaos campaign: OK ({res.passed}/{res.total} exact, "
          f"{res.stalls} stalls)")
