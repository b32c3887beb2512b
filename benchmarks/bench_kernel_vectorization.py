"""Wall-clock ablation: scalar vs level-vectorized sweep kernels.

Not a paper figure - this benchmarks the reproduction's own reference
numerics, following the HPC guides' vectorize-the-loops prescription:
the ``fast`` mode solves cells one by one in topological order, while
``fast-level`` advances every angle together, one dependency level per
``AngleKernel.solve_level`` call, through the solver's one compiled
``SweepPlan`` - as many calls per sweep as the deepest angle has levels.
Both paths are bitwise-tested elsewhere; here pytest-benchmark measures
real wall time, asserts the vectorized path wins and prints the call
count next to the two times (the count itself is guarded by
``tests/test_kernels_level.py``, which CI runs beside this file).
"""

import numpy as np
import pytest

from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.sweep import Material, MaterialMap, SnSolver, level_symmetric


@pytest.fixture(scope="module")
def solver():
    mesh = cube_structured(16, 8.0)
    ps = PatchSet.single_patch(mesh)
    mm = MaterialMap.uniform(
        Material.isotropic(1.0, 0.5, groups=2), mesh.num_cells
    )
    s = SnSolver(ps, level_symmetric(4), mm, np.ones((mesh.num_cells, 2)))
    # Warm the caches so the benchmark measures the kernels, not setup:
    # the scalar path's topological orders, the vectorized path's plan.
    s.sweep_once(mode="fast")
    s.sweep_plan()
    s.sweep_once(mode="fast-level")
    return s


@pytest.mark.benchmark(group="kernel-vectorization")
def test_scalar_kernel(benchmark, solver):
    phi, _, _ = benchmark.pedantic(
        lambda: solver.sweep_once(mode="fast"), rounds=2, iterations=1
    )
    assert phi.shape[0] == solver.mesh.num_cells


@pytest.mark.benchmark(group="kernel-vectorization")
def test_vectorized_kernel(benchmark, solver):
    phi, _, _ = benchmark.pedantic(
        lambda: solver.sweep_once(mode="fast-level"), rounds=2, iterations=1
    )
    assert phi.shape[0] == solver.mesh.num_cells


@pytest.mark.benchmark(group="kernel-vectorization")
def test_vectorized_is_faster(benchmark, solver):
    import time

    t0 = time.perf_counter()
    solver.sweep_once(mode="fast")
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    solver.sweep_once(mode="fast-level")
    t_vec = time.perf_counter() - t0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print(f"\nscalar={t_scalar:.3f}s  vectorized={t_vec:.3f}s  "
          f"speedup={t_scalar / t_vec:.1f}x  "
          f"solve_level calls/sweep={len(solver.sweep_plan().levels)}")
    assert t_vec < t_scalar
