"""Layered-runtime architecture tests.

Guards the decomposition of the DES runtime into its layer stack
(simulator < router < transport < scheduler < recovery < engine_des):
the import DAG must stay acyclic bottom-up, the service reaches the
runtime through its facade only, the scheduler policies own
their core layouts (no resource aliasing), and the simulator's trace
hook feeds the Chrome-trace exporter.
"""

import ast
import pathlib

import pytest

from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.runtime import (
    DataDrivenRuntime,
    HybridPolicy,
    Machine,
    MpiOnlyPolicy,
    Resource,
    Simulator,
)
from tests.conftest import make_solver

#: Bottom-up layer order: a module may import strictly-lower ones only.
LAYERS = [
    "simulator",
    "router",
    "transport",
    "scheduler",
    "recovery",
    "engine_des",
]

RUNTIME_DIR = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "repro" / "runtime"
)

#: What ``repro.service`` may import from the runtime facade: the entry
#: point, its structured exceptions and pure data/config types.  The
#: rest of the facade (Simulator, Transport, Router, Scheduler,
#: FaultInjector, policies, the run checker, ...) is an internal layer
#: whose invariants the DataDrivenRuntime composition root owns.
SERVICE_FACADE_ALLOWED = frozenset({
    "DataDrivenRuntime", "DeadlineExceeded", "Machine", "Layout",
    "TIANHE2", "RecoveryConfig", "FaultPlan",
    "CrashFault", "StragglerWindow", "LinkPartition", "StallError",
    "StallReport", "WaitEdge", "RunReport", "Breakdown",
    "SweepPerformanceModel", "SweepModelPrediction", "CostModel",
})


def _runtime_imports(module: str) -> set[str]:
    """Names of repro.runtime modules imported by ``module``."""
    tree = ast.parse((RUNTIME_DIR / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            name = node.module
            if name.startswith("repro.runtime."):
                name = name.rsplit(".", 1)[-1]
            if node.level == 1:  # from .xxx import ...
                name = name.split(".")[0]
            if name in LAYERS:
                found.add(name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.runtime."):
                    name = alias.name.rsplit(".", 1)[-1]
                    if name in LAYERS:
                        found.add(name)
    return found


class TestLayering:
    @pytest.mark.parametrize("module", LAYERS)
    def test_no_layer_imports_a_layer_above_it(self, module):
        rank = LAYERS.index(module)
        for imported in _runtime_imports(module):
            assert LAYERS.index(imported) < rank, (
                f"{module} imports {imported}, which sits above it "
                f"in the layer stack {LAYERS}"
            )

    def test_all_layer_modules_exist_with_docstrings(self):
        for module in LAYERS:
            path = RUNTIME_DIR / f"{module}.py"
            assert path.exists(), f"missing layer module {module}"
            assert ast.get_docstring(ast.parse(path.read_text())), (
                f"{module} lacks a module docstring"
            )

    def test_service_uses_only_the_runtime_facade(self):
        for path in sorted((RUNTIME_DIR.parent / "service").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        assert not alias.name.startswith("repro.runtime."), (
                            path.name, alias.name)
                elif isinstance(node, ast.ImportFrom):
                    prefix = ("", "repro.service.", "repro.")[node.level]
                    target = prefix + (node.module or "")
                    assert not target.startswith("repro.runtime."), (
                        path.name, target)
                    if target == "repro.runtime":
                        extra = {a.name for a in node.names}
                        extra -= SERVICE_FACADE_ALLOWED
                        assert not extra, (path.name, sorted(extra))

    def test_engine_is_a_thin_composition_root(self):
        n = len((RUNTIME_DIR / "engine_des.py").read_text().splitlines())
        assert n < 260, f"engine_des.py has {n} lines; should stay thin"


class TestSchedulerPolicies:
    def test_mpi_only_shares_one_core_per_rank(self):
        """No aliasing hack: the policy itself fuses master and worker
        on one timeline, labeled as the worker core."""
        machine = Machine(cores_per_proc=4)
        lay = machine.layout(4, "mpi_only")
        masters, workers = MpiOnlyPolicy().build_resources(lay.nprocs, lay)
        assert len(masters) == lay.nprocs
        for p, m in enumerate(masters):
            assert workers[p] == [m]
            assert m is workers[p][0]  # literally one shared timeline
            assert m.core == ("w", p, 0)

    def test_hybrid_separates_master_from_workers(self):
        machine = Machine(cores_per_proc=4)
        lay = machine.layout(16, "hybrid")
        masters, workers = HybridPolicy().build_resources(lay.nprocs, lay)
        for p, m in enumerate(masters):
            assert m.core == ("m", p)
            assert len(workers[p]) == lay.workers_per_proc
            for w, res in enumerate(workers[p]):
                assert res is not m
                assert res.core == ("w", p, w)


class TestSimulator:
    def test_event_order_time_then_fifo(self):
        sim = Simulator()
        sim.push(2.0, "b", 1)
        sim.push(1.0, "a", 2)
        sim.push(1.0, "a", 3)  # same time: FIFO by push sequence
        popped = [sim.pop() for _ in range(len(sim))]
        assert popped == [(1.0, "a", 2), (1.0, "a", 3), (2.0, "b", 1)]
        assert not sim

    def test_live_counts_progress_kinds_only(self):
        sim = Simulator(progress_kinds=frozenset({"work"}))
        sim.push(0.0, "work", None)
        sim.push(0.0, "timer", None)
        assert sim.live == 1
        sim.pop()  # pops "work" (pushed first)
        assert sim.live == 0
        sim.pop()
        assert sim.live == 0

    def test_next_seq_shared_with_pushes(self):
        sim = Simulator()
        first = sim.next_seq()
        sim.push(0.0, "x", None)
        assert sim.next_seq() == first + 2

    def test_observe_keeps_high_water_mark(self):
        sim = Simulator()
        sim.observe(3.0)
        sim.observe(1.0)
        assert sim.makespan == 3.0

    def test_resource_books_serially(self):
        r = Resource(("w", 0, 0))
        assert r.book(1.0, 2.0) == (1.0, 3.0)
        assert r.book(0.5, 1.0) == (3.0, 4.0)  # busy until 3.0
        assert r.core == ("w", 0, 0)

    def test_trace_hook_fires_per_pop(self):
        seen = []
        sim = Simulator(
            trace_hook=seen.append,
            trace_fields=lambda kind, data: (data, None, None),
        )
        sim.push(1.0, "k", 7)
        sim.pop()
        assert len(seen) == 1
        te = seen[0]
        assert (te.time, te.kind, te.proc) == (1.0, "k", 7)


def _small_run(trace: bool):
    machine = Machine(cores_per_proc=4)
    mesh = cube_structured(8, length=4.0)
    pset = PatchSet.from_structured(mesh, (4, 4, 4), nprocs=4)
    s = make_solver(pset, grain=16)
    progs, _ = s.build_programs(compute=False)
    rt = DataDrivenRuntime(16, machine=machine, trace=trace)
    return rt.run(progs, pset.patch_proc)


class TestEventTrace:
    def test_trace_off_by_default(self):
        rep = _small_run(trace=False)
        assert rep.trace_events == []
        assert rep.to_chrome_trace() == {
            "traceEvents": [], "displayTimeUnit": "ms"
        }

    def test_structured_trace_and_chrome_export(self):
        rep = _small_run(trace=True)
        assert len(rep.trace_events) == rep.events
        kinds = {te.kind for te in rep.trace_events}
        assert {"run_start", "run_end", "deliver"} <= kinds
        starts = [te for te in rep.trace_events if te.kind == "run_start"]
        ends = [te for te in rep.trace_events if te.kind == "run_end"]
        assert len(starts) == len(ends) == rep.executions
        assert all(te.core[0] == "w" for te in starts)

        doc = rep.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        assert len(evs) == len(rep.trace_events)
        phs = {e["ph"] for e in evs}
        assert phs <= {"B", "E", "i"}
        slices = [e for e in evs if e["ph"] in ("B", "E")]
        assert len(slices) == 2 * rep.executions
        for e in evs:
            assert e["ts"] >= 0.0
            if e["ph"] == "i":
                assert e["args"]["kind"] not in ("run_start", "run_end")
