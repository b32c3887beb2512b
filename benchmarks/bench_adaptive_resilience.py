"""Adaptive resilience: does adaptivity buy virtual time? (robustness)

Head-to-head on identical seeded fault plans: the fixed-RTO baseline
(every retransmit timer at ``faults.ACK_TIMEOUT``) vs the
adaptive stack in two doses - RTT-estimated RTO with hedged
retransmits, then that plus speculative straggler re-execution.  Two
plan families stress the two mechanisms:

* **straggler-heavy** - long multiplicative slowdown windows on a
  subset of processes plus a lossy wire; speculation should clone the
  straggling programs onto fast survivors, and the RTT estimator
  should stop the lossy wire from paying the full fixed timeout per
  drop;
* **partition-heavy** - timed directed link partitions plus drops; the
  adaptive RTO recovers faster once a partition heals because its
  timers track the real round-trip instead of a worst-case constant.

Every run is held to the same oracle as the chaos campaign: flux
bitwise-identical to the fault-free reference.  Adaptivity that
changes a single bit is a bug, not a trade-off (the headline claim of
the speculation commit protocol).

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
    AdaptiveConfig,
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

#: The three contenders.  Same RecoveryConfig everywhere, so the only
#: difference is the adaptive layer's dose.
CONFIGS = (
    ("fixed-rto", None),
    ("adaptive-rto", AdaptiveConfig(adaptive_rto=True, hedging=True)),
    ("adaptive+spec", AdaptiveConfig(adaptive_rto=True, hedging=True,
                                     speculation=True)),
)


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


PLANS = (("straggler", straggler_plan), ("partition", partition_plan))
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
            for cfg_name, acfg in CONFIGS:
                progs, faces = solver.build_programs(resilient=True)
                rt = DataDrivenRuntime(
                    cores, machine=machine, mode=mode, faults=plan,
                    recovery=RecoveryConfig(adaptive=acfg),
                    trace=trace_dir is not None or hb is not None,
                )
                rep = rt.run(progs, pset.patch_proc)
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
                    "adaptive": rep.adaptive_summary(),
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
            a.get("hedged_sends", 0),
            a.get("speculative_wins", 0),
        ])
    print_series(
        "Adaptive resilience - fixed vs adaptive RTO vs +speculation "
        "(same seeded faults, bitwise-exact oracle)",
        ["scenario", "plan", "config", "makespan", "exact", "retries",
         "hedged", "spec-wins"],
        table,
    )


def _makespan(rows: list[dict], scenario: str, plan: str, config: str):
    return next(
        r["makespan"] for r in rows
        if (r["scenario"], r["plan"], r["config"]) == (scenario, plan, config)
    )


def check(rows: list[dict]) -> None:
    # Zero correctness deviations, ever: adaptivity must be invisible
    # to the flux.
    bad = [r for r in rows if not r["exact"]]
    assert not bad, f"{len(bad)} runs deviated from the reference flux"
    # The estimator actually warmed up and the mechanisms fired.
    armed = [r for r in rows if r["config"] != "fixed-rto"]
    assert all(r["adaptive"].get("rtt_samples", 0) > 0 for r in armed)
    assert any(r["adaptive"].get("speculative_wins", 0) > 0 for r in rows)
    # The headline: adaptive RTO + speculation beats the fixed-RTO
    # baseline on every straggler-heavy cell.
    for kind, mode in SCENARIOS:
        sc = f"{kind}-{mode}"
        fixed = _makespan(rows, sc, "straggler", "fixed-rto")
        spec = _makespan(rows, sc, "straggler", "adaptive+spec")
        assert spec < fixed, (
            f"{sc}/straggler: adaptive+spec {spec:.6f}s is not below "
            f"fixed-rto {fixed:.6f}s"
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
        "Adaptive resilience: fixed vs adaptive RTO vs +speculation on "
        "seeded straggler- and partition-heavy fault plans, asserting "
        "bitwise-exact flux and a makespan win for the adaptive stack",
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
    fixed = [r["makespan"] for r in rows
             if r["plan"] == "straggler" and r["config"] == "fixed-rto"]
    spec = [r["makespan"] for r in rows
            if r["plan"] == "straggler" and r["config"] == "adaptive+spec"]
    gain = 100.0 * (1.0 - sum(spec) / sum(fixed))
    print(f"adaptive resilience: OK (straggler makespan -{gain:.1f}% "
          f"vs fixed RTO, all runs bitwise-exact)")
