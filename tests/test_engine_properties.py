"""Property-based tests of the execution engines' core invariants.

Random sweep configurations (mesh, decomposition, quadrature, grain)
must satisfy, under every backend: full workload completion, identical
numerics, and stream-item conservation (every dependency edge crossing
a patch boundary is communicated exactly once).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SerialEngine
from repro.framework import PatchSet
from repro.mesh import cube_structured, disk_tri_mesh
from repro.runtime import DataDrivenRuntime, Machine
from repro.sweep import (
    Material,
    MaterialMap,
    SnSolver,
    SweepTopology,
    apply_priorities,
    level_symmetric,
)
from repro.sweep.sweep_program import SweepPatchProgram

MACHINE = Machine(cores_per_proc=4)


@st.composite
def sweep_configs(draw):
    mesh_kind = draw(st.sampled_from(["cube", "disk"]))
    nprocs = draw(st.integers(1, 4))
    grain = draw(st.integers(1, 200))
    strategy = draw(
        st.sampled_from(["fifo", "bfs", "ldcp", "slbd", "bfs+slbd"])
    )
    seed = draw(st.integers(0, 100))
    return mesh_kind, nprocs, grain, strategy, seed


_MESHES = {}


def _mesh(kind):
    if kind not in _MESHES:
        _MESHES[kind] = (
            cube_structured(6, 3.0) if kind == "cube" else disk_tri_mesh(6)
        )
    return _MESHES[kind]


def _pset(kind, nprocs, seed):
    mesh = _mesh(kind)
    if kind == "cube":
        return PatchSet.from_structured(mesh, (3, 3, 3), nprocs=min(nprocs, 8))
    return PatchSet.from_unstructured(
        mesh, 20 + seed % 30, nprocs=min(nprocs, 4)
    )


@given(cfg=sweep_configs())
@settings(max_examples=25, deadline=None)
def test_any_configuration_sweeps_to_completion(cfg):
    kind, nprocs, grain, strategy, seed = cfg
    pset = _pset(kind, nprocs, seed)
    topo = SweepTopology(pset, level_symmetric(2))
    apply_priorities(topo, strategy)
    progs = [
        SweepPatchProgram(g, pset.patches[p].cells, grain=grain, angle=a)
        for (p, a), g in topo.graphs.items()
    ]
    eng = SerialEngine()
    for prog in progs:
        eng.add_program(prog)
    stats = eng.run()
    assert all(p.remaining_workload() == 0 for p in progs)
    # Stream-item conservation: every cross-patch edge communicated once.
    expected = sum(g.num_remote_edges for g in topo.graphs.values())
    assert stats.stream_items == expected


@given(cfg=sweep_configs())
@settings(max_examples=12, deadline=None)
def test_des_numerics_invariant_under_configuration(cfg):
    kind, nprocs, grain, strategy, seed = cfg
    pset = _pset(kind, nprocs, seed)
    mesh = pset.mesh
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.3), mesh.num_cells)
    solver = SnSolver(
        pset, level_symmetric(2), mm, np.ones((mesh.num_cells, 1)),
        grain=grain, strategy=strategy,
    )
    ref, _, _ = solver.sweep_once(mode="fast")
    progs, faces = solver.build_programs()
    cores = 4 * pset.num_procs
    DataDrivenRuntime(cores, machine=MACHINE).run(progs, pset.patch_proc)
    phi, _ = solver.accumulate(faces)
    np.testing.assert_array_equal(phi, ref)


@given(
    grain=st.integers(1, 100),
    seed=st.integers(0, 50),
)
@settings(max_examples=15, deadline=None)
def test_des_conserves_messages(grain, seed):
    """Total stream items (local + remote) equal cross-patch edges,
    independent of scheduling nondeterminism knobs."""
    pset = _pset("disk", 2, seed)
    topo = SweepTopology(pset, level_symmetric(2))
    apply_priorities(topo, "slbd+slbd")
    progs = [
        SweepPatchProgram(g, pset.patches[p].cells, grain=grain, angle=a)
        for (p, a), g in topo.graphs.items()
    ]
    rep = DataDrivenRuntime(8, machine=MACHINE).run(progs, pset.patch_proc)
    assert rep.vertices_solved == topo.num_vertices
    # Every cross-patch dependency edge is communicated exactly once,
    # regardless of grain or interleaving.
    expected_edges = sum(g.num_remote_edges for g in topo.graphs.values())
    assert rep.stream_items == expected_edges
    assert rep.executions >= len(progs)
