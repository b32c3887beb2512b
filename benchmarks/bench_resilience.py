"""Resilience matrix: what demotion and membership buy, alone and together.

One grid, one row schema: two scenarios x five seeded fault plans x
four ``RecoveryConfig`` switch settings.  The plans:

* **straggler** - two processes slowed 4-6x for most of the run over a
  lossy wire; a transient straggler is where demotion can lose;
* **partition** - timed directed link partitions plus drops; every
  loss is recovered through the RTT-estimated retransmit timers;
* **slow_alive** - proc 1 3x slow for the whole run, no losses: only
  demotion can help, by moving the slow process's patches away;
* **restart_heavy** - two early crashes that come back
  (``restart_after``) with most of the run left: with membership,
  heartbeat detection fails them over, and each rejoins and pulls
  patches back;
* **restart_stripped** - the same crashes made permanent (the
  never-rejoin control).

The configs: ``none``, ``demotion``, ``membership`` and
``membership+demotion``.  Every run is held to the chaos oracle (flux
bitwise-identical to the fault-free reference), and the checks pin how
the switches compose: a demotion lasts for the rest of the run, so
membership adds nothing to demotion on plans that crash no rank.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_resilience.py

Writes ``BENCH_resilience.json`` at the repo root (override with
``--json``); ``--trace`` dumps per-run Chrome traces, ``--check-hb``
replays every run through the vector-clock checker.
"""

import json
import os

import numpy as np

from repro.chaos import build_scenario
from repro.runtime import (
    CrashFault,
    DataDrivenRuntime,
    FaultPlan,
    LinkPartition,
    RecoveryConfig,
    StragglerWindow,
)

from _common import bench_args, check_hb, print_series, write_chrome_trace

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_resilience.json")

#: Virtual-time window the fault plans land in (the chaos horizon).
HZ = 1e-3


def straggler_plan(nprocs: int) -> FaultPlan:
    windows = tuple(
        StragglerWindow(p, 0.05 * HZ * (i + 1), 0.9 * HZ, 4.0 + i)
        for i, p in enumerate((0, nprocs - 1))
    )
    return FaultPlan(stragglers=windows, p_drop=0.06, seed=11)


def partition_plan(nprocs: int) -> FaultPlan:
    cuts = (
        LinkPartition(0, 1 % nprocs, 0.1 * HZ, 0.35 * HZ),
        LinkPartition(nprocs - 1, 0, 0.3 * HZ, 0.6 * HZ),
    )
    return FaultPlan(partitions=cuts, p_drop=0.05, seed=23)


def slow_alive_plan(nprocs: int) -> FaultPlan:
    return FaultPlan(stragglers=(StragglerWindow(1, 0.0, 50 * HZ, 3.0),))


def restart_heavy_plan(nprocs: int, restart: bool = True) -> FaultPlan:
    """The down windows outlast the suspicion timeout, so each victim is
    detected and failed over before it returns."""
    victims = (1, nprocs - 1) if nprocs > 2 else (1,)
    crashes = tuple(
        CrashFault(p, (0.12 + 0.06 * i) * HZ,
                   restart_after=(0.42 + 0.05 * i) * HZ if restart else 0.0)
        for i, p in enumerate(victims)
    )
    return FaultPlan(crashes=crashes, seed=31)


PLANS = (
    ("straggler", straggler_plan),
    ("partition", partition_plan),
    ("slow_alive", slow_alive_plan),
    ("restart_heavy", restart_heavy_plan),
    ("restart_stripped", lambda n: restart_heavy_plan(n, restart=False)),
)
#: Plans that crash no rank: there membership must add nothing.
NO_CRASH = ("straggler", "partition", "slow_alive")
CONFIGS = {
    "none": RecoveryConfig(),
    "demotion": RecoveryConfig(demotion=True),
    "membership": RecoveryConfig(membership=True),
    "membership+demotion": RecoveryConfig(membership=True, demotion=True),
}
SCENARIOS = (("structured", "hybrid"), ("unstructured", "mpi_only"))
COUNTERS = ("rtt_samples", "demotions", "forwards", "heartbeats",
            "suspicions", "false_suspicions", "fenced_messages",
            "restarts", "rejoins", "rebalanced_patches")


def _post_rejoin_commits(rep) -> int:
    """``hb_commit`` records on a restarted rank after its first
    ``hb_restart``: work the cluster only got back by rejoining."""
    restarted: dict[int, float] = {}
    for e in rep.hb_events:
        if e.kind == "hb_restart":
            restarted.setdefault(e.detail[0], e.time)
    return sum(
        1 for e in rep.hb_events
        if e.kind == "hb_commit" and e.detail[1] in restarted
        and e.time > restarted[e.detail[1]]
    )


def run_matrix(trace_dir: str | None = None, hb=None) -> list[dict]:
    """The scenario x plan x config grid; one row per run."""
    rows: list[dict] = []
    for kind, mode in SCENARIOS:
        machine, cores, pset, solver = build_scenario(kind, mode)
        nprocs = machine.layout(cores, mode).nprocs
        reference = np.ascontiguousarray(solver.sweep_once(mode="fast")[0])
        for plan_name, make_plan in PLANS:
            plan = make_plan(nprocs)
            for cfg_name, rcfg in CONFIGS.items():
                progs, record = solver.build_programs(resilient=True)
                rep = DataDrivenRuntime(
                    cores, machine=machine, mode=mode, faults=plan,
                    recovery=rcfg, trace=True,
                ).run(progs, pset.patch_proc)
                phi, _ = solver.accumulate(record)
                rows.append({
                    "scenario": f"{kind}-{mode}",
                    "plan": plan_name,
                    "config": cfg_name,
                    "makespan": rep.makespan,
                    "exact": phi.tobytes() == reference.tobytes(),
                    "retries": rep.retries,
                    "post_rejoin_commits": _post_rejoin_commits(rep),
                    "counters": {k: getattr(rep, k) for k in COUNTERS},
                })
                label = f"resilience_{kind}_{mode}_{plan_name}_{cfg_name}"
                if trace_dir is not None:
                    write_chrome_trace(rep, label, trace_dir)
                check_hb(rep, label, hb)
    return rows


def report(rows: list[dict]) -> None:
    print_series(
        "Resilience matrix - demotion x membership on seeded fault "
        "plans (bitwise-exact oracle)",
        ["scenario", "plan", "config", "makespan", "exact", "retries",
         "demotions", "suspicions", "rejoins", "rebalanced",
         "post-rejoin"],
        [[r["scenario"], r["plan"], r["config"],
          f"{r['makespan'] * 1e3:.3f}ms", "yes" if r["exact"] else "NO",
          r["retries"], r["counters"]["demotions"],
          r["counters"]["suspicions"], r["counters"]["rejoins"],
          r["counters"]["rebalanced_patches"], r["post_rejoin_commits"]]
         for r in rows],
    )


def check(rows: list[dict]) -> None:
    # Zero correctness deviations, ever: a migration must be invisible
    # to the flux.
    bad = [r for r in rows if not r["exact"]]
    assert not bad, f"{len(bad)} runs deviated from the reference flux"
    # The estimator warmed up wherever the wire loses messages.
    assert all(r["counters"]["rtt_samples"] > 0 for r in rows
               if r["plan"] in ("straggler", "partition"))
    for kind, mode in SCENARIOS:
        sc = f"{kind}-{mode}"
        cell = {(r["plan"], r["config"]): r for r in rows if r["scenario"] == sc}
        # Demotion earns its place in its regime, and fires once there.
        dem = cell["slow_alive", "demotion"]["makespan"]
        none = cell["slow_alive", "none"]["makespan"]
        assert dem < none, (
            f"{sc}/slow_alive: demotion {dem:.6f}s is not below "
            f"none {none:.6f}s"
        )
        for cfg in ("demotion", "membership+demotion"):
            assert cell["slow_alive", cfg]["counters"]["demotions"] == 1, (
                f"{sc}/slow_alive/{cfg}: not exactly one demotion"
            )
        # Composition: a demotion is one-way, and membership adds
        # nothing where no rank crashes - bitwise.
        for plan in NO_CRASH:
            for with_m, without in (("membership+demotion", "demotion"),
                                    ("membership", "none")):
                a = cell[plan, with_m]["makespan"]
                b = cell[plan, without]["makespan"]
                assert a.hex() == b.hex(), (
                    f"{sc}/{plan}: {with_m} {a!r} != {without} {b!r}"
                )
        # The full elastic round trip ran: heartbeat detection beat the
        # restart, the restarted ranks rejoined, pulled patches back and
        # committed real work.
        rj = cell["restart_heavy", "membership"]
        nr = cell["restart_stripped", "membership"]
        for k in ("suspicions", "restarts", "rejoins", "rebalanced_patches"):
            assert rj["counters"][k] > 0, f"{sc}/restart_heavy: no {k}"
        assert rj["post_rejoin_commits"] > 0, (
            f"{sc}: restarted ranks committed nothing after rejoining"
        )
        # The control really never rejoined.
        assert nr["counters"]["rejoins"] == 0
        assert nr["post_rejoin_commits"] == 0
        # Returning capacity beats permanent failover.
        assert rj["makespan"] < nr["makespan"], (
            f"{sc}: rejoin {rj['makespan']:.6f}s is not below "
            f"never-rejoin {nr['makespan']:.6f}s"
        )


try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="resilience")
    def test_resilience_matrix(benchmark):
        rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
        report(rows)
        check(rows)


if __name__ == "__main__":
    args = bench_args(
        "Resilience matrix: demotion and elastic membership, alone and "
        "together, on seeded straggler, partition, slow-but-alive and "
        "restart-heavy fault plans, asserting bitwise-exact flux, the "
        "wins of each mechanism and how the two compose",
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
    print(f"resilience matrix: OK ({len(rows)} runs, all bitwise-exact)")
