"""Quickstart: solve an Sn transport problem with data-driven sweeps.

Builds a small structured mesh, decomposes it into patches, converges
the scalar flux with source iteration, and then replays one sweep on
the simulated JSweep runtime to show the parallel-performance view.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    DataDrivenRuntime,
    Machine,
    Material,
    MaterialMap,
    PatchSet,
    SnSolver,
    cube_structured,
    level_symmetric,
)


def main() -> None:
    # --- 1. mesh + patches (the JAxMIN layer) -------------------------
    mesh = cube_structured(16, length=8.0)
    machine = Machine(cores_per_proc=12)  # Tianhe-2-like socket
    total_cores = 24
    nprocs = machine.layout(total_cores, "hybrid").nprocs
    pset = PatchSet.from_structured(mesh, (8, 8, 8), nprocs=nprocs)
    print(f"mesh: {mesh}")
    print(f"patches: {pset.num_patches} on {nprocs} processes")

    # --- 2. physics: one group, 50% scattering, unit source -----------
    materials = MaterialMap.uniform(
        Material.isotropic(sigma_t=1.0, scatter_ratio=0.5), mesh.num_cells
    )
    source = np.ones((mesh.num_cells, 1))
    solver = SnSolver(
        pset,
        level_symmetric(4),
        materials,
        source,
        grain=64,
        strategy="slbd+slbd",
    )

    # --- 3. converge the flux (serial reference numerics) -------------
    result = solver.source_iteration(tol=1e-7)
    center = result.phi[mesh.linear_index((8, 8, 8)), 0]
    print(
        f"source iteration: {result.iterations} iterations, "
        f"converged={result.converged}"
    )
    print(f"center scalar flux: {center:.4f}  (infinite-medium bound 2.0)")
    print(f"particle balance residual: {solver.balance_residual(result):.2e}")

    # --- 4. the same sweep on the simulated parallel runtime ----------
    programs, record = solver.build_programs()  # compute=True: stamps the order
    runtime = DataDrivenRuntime(total_cores, machine=machine)
    report = runtime.run(programs, pset.patch_proc)
    phi_parallel, _ = solver.accumulate(record)  # checks the order, sweeps once
    ref, _, _ = solver.sweep_once(mode="fast")
    assert np.array_equal(phi_parallel, ref), "parallel schedule changed physics!"

    print(f"\nsimulated sweep on {total_cores} cores "
          f"({nprocs} procs x {machine.cores_per_proc - 1} workers + master):")
    print(report.format_breakdown("  "))
    print(f"  executions={report.executions}  messages={report.messages}  "
          f"local streams={report.local_streams}")
    print("numerics identical under the parallel schedule: OK")


if __name__ == "__main__":
    main()
