"""Adaptive resilience: does demotion buy virtual time? (robustness)

Head-to-head on identical seeded fault plans: the RTT-estimated
retransmit timer every reliable run uses (``rto``) vs the same plus
degraded-mode demotion (``rto+demotion``,
``RecoveryConfig(demotion=True)``).  Three plan families:

* **straggler-heavy** - long multiplicative slowdown windows on two
  processes over a lossy wire; the retransmit path stays hot, and a
  transient straggler is where demotion can lose;
* **partition-heavy** - timed directed link partitions plus drops;
  every loss is recovered through the retransmit timers;
* **slow-but-alive** - one process 3x slow for the whole run, no
  losses: no timer ever fires, so only demotion can help, by moving
  the slow process's patches to healthy ones.

Every run is held to the same oracle as the chaos campaign: flux
bitwise-identical to the fault-free reference.  A migration that
changes a single bit is a bug, not a trade-off.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_adaptive_resilience.py

Writes ``BENCH_adaptive_resilience.json`` at the repo root (override
with ``--json``); ``--trace`` dumps per-run Chrome traces.
"""

import json
import os

import numpy as np

from repro.chaos import build_scenario
from repro.runtime import (
    DataDrivenRuntime,
    FaultPlan,
    LinkPartition,
    RecoveryConfig,
    StragglerWindow,
)

from _common import bench_args, check_hb, print_series, write_chrome_trace

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_adaptive_resilience.json")

#: Virtual-time window the fault plans land in (the chaos horizon).
HZ = 1e-3

#: The two contenders: config label -> ``RecoveryConfig.demotion``.
CONFIGS = (("rto", False), ("rto+demotion", True))


def straggler_plan(nprocs: int, seed: int = 11) -> FaultPlan:
    """Straggler-heavy: two processes slowed 4-6x for most of the run,
    over a lossy wire that keeps the retransmit path hot."""
    slow = (0, nprocs - 1)
    windows = tuple(
        StragglerWindow(p, 0.05 * HZ * (i + 1), 0.9 * HZ, 4.0 + i)
        for i, p in enumerate(slow)
    )
    return FaultPlan(stragglers=windows, p_drop=0.06, seed=seed)


def partition_plan(nprocs: int, seed: int = 23) -> FaultPlan:
    """Partition-heavy: two timed directed cuts plus drops; every loss
    is recovered through the retransmit timers under test."""
    cuts = (
        LinkPartition(0, 1 % nprocs, 0.1 * HZ, 0.35 * HZ),
        LinkPartition(nprocs - 1, 0, 0.3 * HZ, 0.6 * HZ),
    )
    return FaultPlan(partitions=cuts, p_drop=0.05, seed=seed)


def slow_alive_plan(nprocs: int) -> FaultPlan:
    """Slow-but-alive: proc 1 runs 3x slow far past the end of the run,
    on a lossless wire (demotion's regime; no timer ever fires)."""
    return FaultPlan(stragglers=(StragglerWindow(1, 0.0, 50 * HZ, 3.0),))


PLANS = (("straggler", straggler_plan), ("partition", partition_plan),
         ("slow_alive", slow_alive_plan))
SCENARIOS = (("structured", "hybrid"), ("unstructured", "mpi_only"))


def run_matrix(trace_dir: str | None = None, hb=None) -> list[dict]:
    """The full scenario x plan x config grid; one row per run."""
    rows: list[dict] = []
    for kind, mode in SCENARIOS:
        machine, cores, pset, solver = build_scenario(kind, mode)
        nprocs = machine.layout(cores, mode).nprocs
        reference, _, _ = solver.sweep_once(mode="fast")
        for plan_name, make_plan in PLANS:
            plan = make_plan(nprocs)
            for cfg_name, demotion in CONFIGS:
                progs, faces = solver.build_programs(resilient=True)
                rt = DataDrivenRuntime(
                    cores, machine=machine, mode=mode, faults=plan,
                    recovery=RecoveryConfig(demotion=demotion),
                    trace=trace_dir is not None or hb is not None,
                )
                rep = rt.run(progs, pset.patch_proc)
                counters = rep.fault_summary()
                phi, _ = solver.accumulate(faces)
                exact = bool(
                    phi.tobytes()
                    == np.ascontiguousarray(reference).tobytes()
                )
                row = {
                    "scenario": f"{kind}-{mode}",
                    "plan": plan_name,
                    "config": cfg_name,
                    "makespan": rep.makespan,
                    "exact": exact,
                    "retries": rep.retries,
                    "adaptive": {
                        k: counters[k] for k in ("rtt_samples", "demotions", "forwards")
                    },
                }
                rows.append(row)
                if trace_dir is not None:
                    write_chrome_trace(
                        rep, f"adaptive_{kind}_{mode}_{plan_name}_{cfg_name}",
                        trace_dir,
                    )
                check_hb(
                    rep, f"adaptive_{kind}_{mode}_{plan_name}_{cfg_name}", hb
                )
    return rows


def report(rows: list[dict]) -> None:
    table = []
    for r in rows:
        a = r["adaptive"]
        table.append([
            r["scenario"], r["plan"], r["config"],
            f"{r['makespan'] * 1e3:.3f}ms",
            "yes" if r["exact"] else "NO",
            r["retries"],
            a.get("rtt_samples", 0),
            a.get("demotions", 0),
        ])
    print_series(
        "Adaptive resilience - RTT-estimated RTO vs +demotion "
        "(same seeded faults, bitwise-exact oracle)",
        ["scenario", "plan", "config", "makespan", "exact", "retries",
         "rtt-samples", "demotions"],
        table,
    )


def _makespan(rows: list[dict], scenario: str, plan: str, config: str):
    return next(
        r["makespan"] for r in rows
        if (r["scenario"], r["plan"], r["config"]) == (scenario, plan, config)
    )


def check(rows: list[dict]) -> None:
    # Zero correctness deviations, ever: a migration must be invisible
    # to the flux.
    bad = [r for r in rows if not r["exact"]]
    assert not bad, f"{len(bad)} runs deviated from the reference flux"
    # The estimator warmed up wherever the wire loses messages.
    lossy = [r for r in rows if r["plan"] != "slow_alive"]
    assert all(r["adaptive"]["rtt_samples"] > 0 for r in lossy)
    # Demotion earns its place in its regime: it beats the timer alone
    # on a slow-but-alive rank.
    for kind, mode in SCENARIOS:
        sc = f"{kind}-{mode}"
        rto = _makespan(rows, sc, "slow_alive", "rto")
        dem = _makespan(rows, sc, "slow_alive", "rto+demotion")
        assert dem < rto, (
            f"{sc}/slow_alive: rto+demotion {dem:.6f}s is not "
            f"below rto {rto:.6f}s"
        )


try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="adaptive")
    def test_adaptive_resilience(benchmark):
        rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
        report(rows)
        check(rows)


if __name__ == "__main__":
    args = bench_args(
        "Adaptive resilience: RTT-estimated RTO vs +demotion on "
        "seeded straggler-, partition-heavy and slow-but-alive fault "
        "plans, asserting bitwise-exact flux and a slow-but-alive "
        "makespan win for demotion",
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

    def total(plan: str, config: str) -> float:
        return sum(r["makespan"] for r in rows
                   if (r["plan"], r["config"]) == (plan, config))

    dem_gain = 100.0 * (1.0 - total("slow_alive", "rto+demotion")
                        / total("slow_alive", "rto"))
    print(f"adaptive resilience: OK (slow-but-alive makespan "
          f"-{dem_gain:.1f}% with demotion, all runs bitwise-exact)")
