"""Ablation (Sec. II-D motivation): BSP sweeps vs the data-driven runtime.

The paper's premise: BSP is "seriously inefficient for data-driven
sweep computation where the parallelism is fine-grained".  Sweeping in
super-steps pays (i) a global barrier per wavefront step, (ii) whole-
step latency for any work that becomes ready mid-step, and (iii) the
max-process load each step.

Reproduction: the same sweep programs under the BSP executor and the
data-driven DES runtime across core counts.  Shape to reproduce: the
data-driven runtime wins, and its advantage grows with scale as the
per-step barrier and step-granularity losses accumulate.
"""

import pytest

from repro import DataDrivenRuntime, PatchSet, cube_structured
from repro.sweep import Material, MaterialMap, SnSolver, level_symmetric
from repro.sweep.baselines import BSPSweepRuntime

from _common import MACHINE, print_series

import numpy as np

CORES = [24, 48, 96, 192]


def run_bsp_ablation():
    mesh = cube_structured(20, length=20.0)
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.5), mesh.num_cells)
    pset = PatchSet.from_structured(mesh, (4, 4, 4))
    solver = SnSolver(
        pset, level_symmetric(4), mm, np.ones((mesh.num_cells, 1)), grain=64,
    )
    rows = []
    for cores in CORES:
        patch_proc = pset.assign(MACHINE.layout(cores).nprocs)
        progs, _ = solver.build_programs(compute=False)
        dd = DataDrivenRuntime(cores, machine=MACHINE).run(progs, patch_proc)
        progs2, _ = solver.build_programs(compute=False)
        bsp = BSPSweepRuntime(cores, machine=MACHINE).run(progs2, patch_proc)
        rows.append([cores, bsp.time * 1e3, dd.makespan * 1e3,
                     bsp.time / dd.makespan, bsp.supersteps])
    return rows


@pytest.mark.benchmark(group="ablation-bsp")
def test_bsp_vs_datadriven(benchmark):
    rows = benchmark.pedantic(run_bsp_ablation, rounds=1, iterations=1)
    print_series(
        "Ablation - BSP super-steps vs data-driven runtime (same sweep)",
        ["cores", "bsp_ms", "datadriven_ms", "bsp/dd", "supersteps"],
        rows,
    )
    # Data-driven wins at scale.
    assert rows[-1][3] > 1.0
    # The gap grows with core count.
    assert rows[-1][3] > rows[0][3]
