"""Fig. 9b: priority-strategy pairs on structured meshes vs core count.

Paper setup: SnSweep-S comparing LDCP+LDCP, SLBD+SLBD and LDCP+SLBD
over 96..768 cores; SLBD-based vertex ordering performs best.

Scaled setup: 24^3 cube, S2, patch 6^3, 24..192 simulated cores.
Shape to reproduce: strategies diverge as cores grow; a strategy pair
with SLBD vertex ordering is never the worst at the largest scale.
"""

import numpy as np
import pytest

from repro import DataDrivenRuntime, PatchSet, cube_structured
from repro.sweep import Material, MaterialMap, SnSolver, level_symmetric

from _common import MACHINE, bench_args, maybe_profile, print_series

STRATEGIES = ["ldcp+ldcp", "slbd+slbd", "ldcp+slbd"]
CORES = [24, 48, 96, 192]


def run_fig09b() -> dict[str, list[float]]:
    mesh = cube_structured(24, length=24.0)
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.5), mesh.num_cells)
    out: dict[str, list[float]] = {s: [] for s in STRATEGIES}
    pset = PatchSet.from_structured(mesh, (6, 6, 6))
    solvers = {
        strat: SnSolver(
            pset, level_symmetric(2), mm,
            np.ones((mesh.num_cells, 1)), strategy=strat, grain=100,
        )
        for strat in STRATEGIES
    }
    for cores in CORES:
        patch_proc = pset.assign(MACHINE.layout(cores).nprocs)
        for strat, solver in solvers.items():
            programs, _ = solver.build_programs(compute=False)
            rep = DataDrivenRuntime(cores, machine=MACHINE).run(programs, patch_proc)
            out[strat].append(rep.makespan * 1e3)
    return out


@pytest.mark.benchmark(group="fig09b")
def test_fig09b_priority_strategies_structured(benchmark):
    out = benchmark.pedantic(run_fig09b, rounds=1, iterations=1)
    rows = [
        [c] + [out[s][i] for s in STRATEGIES] for i, c in enumerate(CORES)
    ]
    print_series(
        "Fig. 9b - priority strategies (structured, time in ms)",
        ["cores"] + [s.upper() for s in STRATEGIES],
        rows,
    )
    # Every strategy scales: largest-core run beats smallest-core run.
    for s in STRATEGIES:
        assert out[s][-1] < out[s][0]
    # At the largest scale a SLBD-vertex strategy is not the worst.
    last = {s: out[s][-1] for s in STRATEGIES}
    worst = max(last, key=last.get)
    assert worst == "ldcp+ldcp" or last[worst] < 1.1 * min(last.values()), (
        f"expected an SLBD vertex ordering to win at scale, got {last}"
    )
if __name__ == "__main__":
    args = bench_args("Fig. 9b: priority strategies (structured)")
    out = maybe_profile(run_fig09b, "fig09b", args.profile)
    rows = [[c] + [out[s][i] for s in STRATEGIES]
            for i, c in enumerate(CORES)]
    print_series("Fig. 9b - priority strategies (structured)",
                 ["cores"] + list(STRATEGIES), rows)
