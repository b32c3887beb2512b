"""Elastic membership: does letting crashed ranks rejoin buy time?

Head-to-head on identical restart-heavy fault plans, both sides armed
with the full membership stack (heartbeat detection, incarnation
fencing - no ``detection_delay`` oracle anywhere):

* **rejoin** - the plan as written: every crash carries a
  ``restart_after``, so the rank comes back, announces a bumped
  incarnation, catches up via snapshot + delivery-log anti-entropy and
  pulls patches back under the rebalance budget;
* **never-rejoin** - the same plan with every ``restart_after``
  stripped: crashes are permanent, the survivors absorb the dead
  ranks' patches through failover and keep them for the rest of the
  run.

The headline metrics: restarted ranks commit real work *after* their
rejoin (counted from ``hb_restart``/``hb_commit`` trace records, so a
rejoin that only decorates the counters scores zero), and the rejoin
side's makespan beats never-rejoin failover on every restart-heavy
cell - returning capacity must outrun the state-transfer tax.

Every run is held to the chaos oracle: flux bitwise-identical to the
fault-free reference.  Elasticity that changes a bit is a bug.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_membership.py

Writes ``BENCH_membership.json`` at the repo root (override with
``--json``); ``--trace`` dumps per-run Chrome traces, ``--check-hb``
replays every traced run through the vector-clock checker.
"""

import json
import os

import numpy as np

from repro.chaos import build_scenario
from repro.runtime import (
    CrashFault,
    DataDrivenRuntime,
    FaultPlan,
    RecoveryConfig,
)

from _common import bench_args, check_hb, print_series, write_chrome_trace

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_membership.json")

#: Virtual-time window the fault plans land in (the chaos horizon).
HZ = 1e-3


def restart_heavy_plan(nprocs: int, seed: int = 31) -> FaultPlan:
    """Two early crashes that both come back with most of the run left:
    the window where returning capacity should pay for itself.  The
    down windows outlast the suspicion timeout, so each victim is
    detected and failed over *before* it returns - the rejoin has to
    pull its patches back through the rebalance budget, the full
    elastic round trip."""
    victims = (1, nprocs - 1) if nprocs > 2 else (1,)
    crashes = tuple(
        CrashFault(p, (0.12 + 0.06 * i) * HZ,
                   restart_after=(0.42 + 0.05 * i) * HZ)
        for i, p in enumerate(victims)
    )
    return FaultPlan(crashes=crashes, seed=seed)


def strip_restarts(plan: FaultPlan) -> FaultPlan:
    """The never-rejoin control: same crashes, made permanent."""
    crashes = tuple(
        CrashFault(c.proc, c.time, cascade=c.cascade,
                   cascade_window=c.cascade_window,
                   cascade_max=c.cascade_max)
        for c in plan.crashes
    )
    return FaultPlan(crashes=crashes, stragglers=plan.stragglers,
                     partitions=plan.partitions, p_drop=plan.p_drop,
                     p_corrupt=plan.p_corrupt, seed=plan.seed)


def _post_rejoin_commits(rep) -> int:
    """Count ``hb_commit`` records on a restarted rank after its
    ``hb_restart`` - commits the cluster only got back by rejoining."""
    restarted: dict[int, float] = {}
    for e in rep.hb_events:
        if e.kind == "hb_restart":
            p = e.detail[0]
            restarted[p] = min(e.time, restarted.get(p, e.time))
    return sum(
        1 for e in rep.hb_events
        if e.kind == "hb_commit"
        and e.detail[1] in restarted
        and e.time > restarted[e.detail[1]]
    )


SCENARIOS = (("structured", "hybrid"), ("unstructured", "mpi_only"))
CONFIGS = ("rejoin", "never-rejoin")


def run_matrix(trace_dir: str | None = None, hb=None) -> list[dict]:
    """The scenario x {rejoin, never-rejoin} grid; one row per run."""
    rows: list[dict] = []
    for kind, mode in SCENARIOS:
        machine, cores, pset, solver = build_scenario(kind, mode)
        nprocs = machine.layout(cores, mode).nprocs
        reference, _, _ = solver.sweep_once(mode="fast")
        base = restart_heavy_plan(nprocs)
        for cfg_name in CONFIGS:
            plan = base if cfg_name == "rejoin" else strip_restarts(base)
            progs, faces = solver.build_programs(resilient=True)
            rt = DataDrivenRuntime(
                cores, machine=machine, mode=mode, faults=plan,
                recovery=RecoveryConfig(membership=True),
                trace=True,
            )
            rep = rt.run(progs, pset.patch_proc)
            phi, _ = solver.accumulate(faces)
            exact = bool(
                phi.tobytes() == np.ascontiguousarray(reference).tobytes()
            )
            row = {
                "scenario": f"{kind}-{mode}",
                "config": cfg_name,
                "makespan": rep.makespan,
                "exact": exact,
                "post_rejoin_commits": _post_rejoin_commits(rep),
                "membership": rep.membership_summary(),
            }
            rows.append(row)
            label = f"membership_{kind}_{mode}_{cfg_name}"
            if trace_dir is not None:
                write_chrome_trace(rep, label, trace_dir)
            check_hb(rep, label, hb)
    return rows


def report(rows: list[dict]) -> None:
    table = []
    for r in rows:
        m = r["membership"]
        table.append([
            r["scenario"], r["config"],
            f"{r['makespan'] * 1e3:.3f}ms",
            "yes" if r["exact"] else "NO",
            m["suspicions"], m["restarts"], m["rejoins"],
            m["rebalanced_patches"], r["post_rejoin_commits"],
        ])
    print_series(
        "Elastic membership - rejoin vs never-rejoin failover on "
        "restart-heavy plans (heartbeat detection, bitwise-exact oracle)",
        ["scenario", "config", "makespan", "exact", "suspect", "restarts",
         "rejoins", "rebalanced", "post-rejoin-commits"],
        table,
    )


def _row(rows: list[dict], scenario: str, config: str) -> dict:
    return next(
        r for r in rows
        if (r["scenario"], r["config"]) == (scenario, config)
    )


def check(rows: list[dict]) -> None:
    # Zero correctness deviations, ever: elasticity must be invisible
    # to the flux.
    bad = [r for r in rows if not r["exact"]]
    assert not bad, f"{len(bad)} runs deviated from the reference flux"
    for kind, mode in SCENARIOS:
        sc = f"{kind}-{mode}"
        rj = _row(rows, sc, "rejoin")
        nr = _row(rows, sc, "never-rejoin")
        # The full elastic round trip ran: heartbeat detection beat the
        # restart, so the rejoin had to pull patches back.
        assert rj["membership"]["suspicions"] > 0, f"{sc}: oracle-free "\
            "detection never fired"
        assert rj["membership"]["rebalanced_patches"] > 0, (
            f"{sc}: rejoin pulled no patches back"
        )
        # The restarted ranks actually rejoined and did real work.
        assert rj["membership"]["restarts"] > 0, f"{sc}: no restart fired"
        assert rj["membership"]["rejoins"] > 0, f"{sc}: no rank rejoined"
        assert rj["post_rejoin_commits"] > 0, (
            f"{sc}: restarted ranks committed nothing after rejoining"
        )
        # The control really never rejoined.
        assert nr["membership"]["rejoins"] == 0
        assert nr["post_rejoin_commits"] == 0
        # The headline: returning capacity beats permanent failover.
        assert rj["makespan"] < nr["makespan"], (
            f"{sc}: rejoin {rj['makespan']:.6f}s is not below "
            f"never-rejoin {nr['makespan']:.6f}s"
        )


try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="membership")
    def test_membership_elasticity(benchmark):
        rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
        report(rows)
        check(rows)


if __name__ == "__main__":
    args = bench_args(
        "Elastic membership: rejoining restarted ranks vs never-rejoin "
        "failover on identical restart-heavy fault plans, asserting "
        "bitwise-exact flux, post-rejoin commits on the restarted ranks, "
        "and a makespan win for elasticity",
        extra=lambda ap: (
            ap.add_argument("--json", metavar="PATH", default=JSON_PATH,
                            help="where to write the JSON summary"),
        ),
    )
    rows = run_matrix(trace_dir=args.trace, hb=args.check_hb)
    report(rows)
    check(rows)
    out = os.path.normpath(args.json)
    with open(out, "w") as fh:
        json.dump({"rows": rows}, fh, indent=1)
    print(f"\nsummary: {out}")
    rj = [r["makespan"] for r in rows if r["config"] == "rejoin"]
    nr = [r["makespan"] for r in rows if r["config"] == "never-rejoin"]
    gain = 100.0 * (1.0 - sum(rj) / sum(nr))
    print(f"membership elasticity: OK (makespan -{gain:.1f}% vs "
          f"never-rejoin, all runs bitwise-exact)")
