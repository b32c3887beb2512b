"""Fault resilience: checkpoint overhead and makespan degradation.

The robustness counterpart of the paper's evaluation: the DES cluster
runs the same data-driven sweep (scheduling only) under an increasingly
hostile network and under a process crash, and reports

* the *zero-fault tax*: makespan of a run with the full recovery
  machinery armed (acks, retransmit timers, periodic checkpoints) but
  no injected faults, relative to the plain runtime;
* the *degradation curve*: makespan vs message-drop probability, with
  retransmissions recovering every lost stream;
* the *crash row*: a mid-run fail-stop of one process, its patches
  re-assigned to survivors and replayed from checkpoints.

Shape to reproduce: the zero-fault tax stays within a few percent, the
degradation curve has no cliffs (retry backoff absorbs losses; a loss
can also reorder the schedule into a slightly shorter one), every lossy
run solves every vertex, and the crash run completes all work with a
bounded makespan penalty.

Run standalone (used by CI as a smoke test)::

    PYTHONPATH=src python benchmarks/bench_fault_resilience.py --smoke

``--trace DIR`` additionally exports one Chrome-trace JSON per DES run.
"""

import numpy as np

from repro import DataDrivenRuntime, PatchSet, cube_structured
from repro.runtime import CrashFault, FaultPlan, RecoveryConfig
from repro.sweep import Material, MaterialMap, SnSolver, level_symmetric

from _common import MACHINE, bench_args, check_hb, print_series, write_chrome_trace

DROP_RATES = [0.0, 0.02, 0.05, 0.10]


def _build(cores: int, n: int):
    mesh = cube_structured(n, length=float(n))
    nprocs = MACHINE.layout(cores, "hybrid").nprocs
    pset = PatchSet.from_structured(mesh, (4, 4, 4), nprocs=nprocs)
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.5), mesh.num_cells)
    solver = SnSolver(
        pset, level_symmetric(4), mm, np.ones((mesh.num_cells, 1)), grain=64
    )
    return pset, solver


def _run(cores: int, n: int, plan=None, recovery=None, resilient=False,
         trace_dir=None, label="", hb=None):
    pset, solver = _build(cores, n)
    total = solver.topology.num_vertices
    progs, _ = solver.build_programs(compute=False, resilient=resilient)
    rt = DataDrivenRuntime(
        cores, machine=MACHINE, faults=plan, recovery=recovery,
        trace=trace_dir is not None or hb is not None,
    )
    rep = rt.run(progs, pset.patch_proc)
    if trace_dir is not None:
        write_chrome_trace(rep, f"fault-resilience-{label}", trace_dir)
    check_hb(rep, f"fault-resilience-{label}", hb)
    return rep, total


def run_fault_resilience(cores: int = 48, n: int = 16, trace_dir=None,
                         hb=None):
    base, _ = _run(cores, n, trace_dir=trace_dir, label="plain", hb=hb)

    # -- zero-fault tax: recovery machinery armed, nothing injected ----
    armed, _ = _run(cores, n, plan=FaultPlan(seed=1),
                    recovery=RecoveryConfig(), trace_dir=trace_dir,
                    label="armed", hb=hb)
    overhead_rows = [
        ["plain", base.makespan * 1e3, 0.0, 0, 0.0],
        [
            "armed",
            armed.makespan * 1e3,
            (armed.makespan / base.makespan - 1.0) * 100.0,
            armed.checkpoints,
            armed.recovery_fraction() * 100.0,
        ],
    ]

    # -- degradation curve over message-drop probability ---------------
    curve_rows = []
    for p in DROP_RATES:
        plan = FaultPlan(p_drop=p, p_duplicate=p / 2.0, seed=42)
        rep, total = _run(cores, n, plan=plan, trace_dir=trace_dir,
                          label=f"drop{p:g}", hb=hb)
        curve_rows.append([
            p,
            rep.makespan * 1e3,
            rep.makespan / base.makespan,
            rep.drops,
            rep.duplicates,
            rep.retries,
            total - rep.vertices_solved,
        ])

    # -- crash failover ------------------------------------------------
    plan = FaultPlan(
        crashes=(CrashFault(proc=1, time=base.makespan * 0.3),),
        p_drop=0.02, p_duplicate=0.01, seed=7,
    )
    crash, _ = _run(cores, n, plan=plan, resilient=True,
                    trace_dir=trace_dir, label="crash", hb=hb)
    crash_rows = [[
        crash.makespan * 1e3,
        crash.makespan / base.makespan,
        crash.failover_time * 1e6,
        crash.reexecutions,
        crash.recovery_fraction() * 100.0,
    ]]
    return overhead_rows, curve_rows, crash_rows


def report(overhead_rows, curve_rows, crash_rows) -> None:
    print_series(
        "Fault resilience - zero-fault checkpoint overhead",
        ["config", "makespan_ms", "overhead_%", "checkpoints", "recovery_%"],
        overhead_rows,
    )
    print_series(
        "Fault resilience - makespan degradation vs drop rate",
        ["p_drop", "makespan_ms", "vs_base", "drops", "dups", "retries",
         "unsolved"],
        curve_rows,
    )
    print_series(
        "Fault resilience - crash of 1 process mid-run",
        ["makespan_ms", "vs_base", "failover_us", "reexecutions",
         "recovery_%"],
        crash_rows,
    )


def check(overhead_rows, curve_rows, crash_rows) -> None:
    # Zero-fault tax within the checkpoint overhead budget.
    assert overhead_rows[1][2] < 10.0, "checkpoint overhead above 10%"
    # Every lossy run completes with every vertex solved, its losses
    # recovered by retries.  Its makespan may fall below the reliable
    # run's: a loss can reorder the schedule into a shorter one.
    for row in curve_rows[1:]:
        assert row[6] == 0, "a lossy run left vertices unsolved"
        assert row[5] > 0  # retries happened...
    assert curve_rows[0][3] == 0  # ...but p=0 dropped nothing
    assert curve_rows[0][6] == 0
    # The crash was survived at a finite, accounted cost.
    assert crash_rows[0][1] >= 1.0
    assert crash_rows[0][3] > 0  # work was re-executed from checkpoints


try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="fault-resilience")
    def test_fault_resilience(benchmark):
        rows = benchmark.pedantic(run_fault_resilience, rounds=1, iterations=1)
        report(*rows)
        check(*rows)


if __name__ == "__main__":
    args = bench_args(
        "Fault-resilience benchmark: checkpoint overhead, drop-rate "
        "degradation curve, crash failover (--smoke for the CI-sized "
        "run, --trace to export Chrome-trace JSON per run)"
    )
    rows = (
        run_fault_resilience(cores=24, n=12, trace_dir=args.trace,
                             hb=args.check_hb)
        if args.smoke
        else run_fault_resilience(trace_dir=args.trace, hb=args.check_hb)
    )
    report(*rows)
    check(*rows)
    print("\nfault-resilience benchmark: OK")
