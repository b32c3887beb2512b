"""The ledger's five workloads, driven through the public ``repro`` API.

Every workload is a closed loop in one process and one thread on the
Tianhe-2-like machine model (12-core sockets).  A workload has two
parts the harness times separately:

* ``setup(lap)`` - a *cold* construction of every application it runs
  (mesh -> ``PatchSet`` -> ``SnSolver`` -> ``solver.topology`` (DAG +
  priorities) -> one ``build_programs``), plus whatever is a pure
  function of that (reference fluxes, the analytic model prediction);
* ``body(state, tmp, lap)`` - one repetition of the measured work.  It
  checks its own outputs, calls ``lap()`` between its operations (the
  harness calibrates there, off the clock) and returns an :class:`Obs`.

``--seed`` feeds the ball mesh jitter, every ``FaultPlan`` seed and
the service arrival generator; the program under test sees only the
generated inputs.  Sizes come from ``ledger.json``.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    JSNTS, JSNTU, CrashFault, DataDrivenRuntime, FaultPlan, Machine,
)
from repro.persist import SnapshotManager, kill_and_resume, report_fingerprint
from repro.runtime import SweepPerformanceModel
from repro.service import (
    JobExecutor, JobSpec, JobStatus, ServiceConfig, SweepService, WriteAheadLog,
)
from repro.sweep import product_quadrature

__all__ = ["WORKLOADS", "Obs"]

MACHINE = Machine(cores_per_proc=12)

#: per-layer metric -> ``RunReport`` attribute, summed over the body's DES runs.
REPORT_COUNTERS = {
    "runtime.events": "events",
    "runtime.scheduler.executions": "executions",
    "runtime.transport.messages": "messages",
    "runtime.transport.message_bytes": "message_bytes",
    "runtime.transport.local_streams": "local_streams",
    "runtime.transport.retries": "retries",
    "runtime.transport.drops": "drops",
    "runtime.transport.duplicates": "duplicates",
    "runtime.transport.timeouts": "timeouts",
    "runtime.recovery.checkpoints": "checkpoints",
    "runtime.recovery.reexecutions": "reexecutions",
    "runtime.recovery.crashes": "crashes",
    "runtime.recovery.failover_time_s": "failover_time",
    "sweep.kernels.vertices": "vertices_solved",
    "persist.snapshots": "snapshots",
    "persist.snapshot_bytes": "snapshot_bytes",
}

#: Fig. 16 categories reported as ``runtime.breakdown.<category>``.
BREAKDOWN = ("kernel", "graph_op", "pack", "unpack", "sched", "comm", "recovery", "idle")


@dataclass
class Obs:
    """What one body repetition observed."""

    ops: int = 0  # operations attempted: DES runs, solves, resumes, jobs
    failed_ops: int = 0  # of those, jobs the service refused or failed
    failed_checks: list[str] = field(default_factory=list)
    vertices: int = 0  # scheduled vertices + (cell, angle, group) solves
    jobs: int = 0  # completed service jobs
    #: end-to-end metrics that repeat exactly (virtual time, ratios of it)
    virtual: dict[str, float] = field(default_factory=dict)
    #: per-layer counters read from public report / manager attributes
    layers: dict[str, float] = field(default_factory=dict)
    #: host-time ratios paired inside the repetition
    paired: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, name: str) -> None:
        if not ok:
            self.failed_checks.append(name)

    def add_reports(self, reports, breakdown_of) -> None:
        """Fold DES reports into the per-layer counters; the Fig. 16
        breakdown is taken over ``breakdown_of`` (the largest
        configuration) only."""
        lay = self.layers
        for metric, attr in REPORT_COUNTERS.items():
            lay[metric] = lay.get(metric, 0) + sum(getattr(r, attr) for r in reports)
        lay["runtime.simulator.peak_heap"] = max(
            [lay.get("runtime.simulator.peak_heap", 0)] + [r.peak_heap for r in reports]
        )
        for cat in BREAKDOWN:
            lay[f"runtime.breakdown.{cat}"] = sum(
                r.breakdown.by_category.get(cat, 0.0) for r in breakdown_of
            )


def _construct(app) -> None:
    """The cold part of an application the first run would otherwise pay."""
    _ = app.solver.topology
    app.solver.build_programs(compute=False)


def _vertices(app) -> int:
    """(cell, angle) vertices of one full sweep."""
    return app.pset.mesh.num_cells * app.solver.quadrature.num_angles


def _dag_size(apps) -> dict:
    """Static per-layer counters of the DAGs the body schedules."""
    return {
        "sweep.dag.vertices": sum(a.solver.topology.num_vertices for a in apps),
        "sweep.dag.programs": sum(len(a.solver.topology.graphs) for a in apps),
    }


class Workload:
    """``size`` is the workload's entry of ``ledger.json``."""

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed


class StrongScaling(Workload):
    """One mesh swept scheduling-only at several simulated core counts
    on the clean path (``fastloop``): paper Fig. 12 / Fig. 14."""

    def __init__(self, size: dict, seed: int):
        super().__init__(size, seed)
        self.cores = tuple(size["cores"])

    def _app(self, cores: int):
        raise NotImplementedError

    def setup(self, lap) -> dict:
        apps = []
        for cores in self.cores:
            apps.append(self._app(cores))
            _construct(apps[-1])
            lap()
        model = SweepPerformanceModel(apps[-1].solver.topology, MACHINE)
        return {"apps": apps, "model_s": model.predict(self.cores[-1]).time,
                "dag": _dag_size(apps)}

    def body(self, state: dict, tmp: str, lap) -> Obs:
        obs = Obs()
        apps = state["apps"]
        reports = []
        for app, cores in zip(apps, self.cores):
            if reports:
                lap()
            reports.append(app.sweep_report(cores))
        for app, rep in zip(apps, reports):
            obs.ops += 1
            obs.check(rep.vertices_solved == _vertices(app), "vertices_solved")
            obs.vertices += rep.vertices_solved
        lo, hi = reports[0], reports[-1]
        obs.virtual = {
            "makespan": sum(r.makespan for r in reports),
            "parallel_efficiency": (lo.makespan * self.cores[0])
            / (hi.makespan * self.cores[-1]),
            "model_ratio": hi.makespan / state["model_s"],
        }
        obs.add_reports(reports, [hi])
        obs.layers.update(state["dag"])
        return obs


class BallSched(StrongScaling):
    def _app(self, cores: int):
        s = self.size
        return JSNTU.ball(
            s["resolution"], total_cores=cores, machine=MACHINE,
            patch_size=s["patch_size"], grain=s["grain"], groups=1, seed=self.seed,
        )


class KobaSched(StrongScaling):
    def _app(self, cores: int):
        s = self.size
        return JSNTS.kobayashi(
            s["n"], total_cores=cores, machine=MACHINE,
            patch_shape=(s["patch"],) * 3,
            quadrature=product_quadrature(*s["angles"]), grain=s["grain"],
        )


class PhysicsSolve(Workload):
    """Numerics where they matter: two converged source iterations
    (level-vectorized kernels) and one ``compute=True`` DES sweep (the
    same kernels through per-cluster callbacks) whose flux must equal
    the serial sweep's bitwise."""

    def setup(self, lap) -> dict:
        s = self.size
        quad = product_quadrature(*s["angles"])
        koba = JSNTS.kobayashi(
            s["koba_n"], total_cores=s["koba_cores"], machine=MACHINE,
            patch_shape=(s["koba_n"] // 4,) * 3, quadrature=quad,
        )
        ball = JSNTU.ball(
            s["ball_resolution"], total_cores=s["ball_cores"], machine=MACHINE,
            patch_size=s["ball_patch_size"], groups=s["ball_groups"], seed=self.seed,
        )
        des = JSNTS.kobayashi(
            s["des_n"], total_cores=s["des_cores"], machine=MACHINE,
            patch_shape=(s["des_n"] // 4,) * 3, quadrature=quad,
        )
        for app in (koba, ball, des):
            _construct(app)
        lap()
        reference, _, _ = des.solver.sweep_once(mode="fast-level")
        return {"koba": koba, "ball": ball, "des": des, "reference": reference,
                "dag": _dag_size([des])}

    def body(self, state: dict, tmp: str, lap) -> Obs:
        obs = Obs()
        s = self.size
        iterations = 0
        residual = 0.0
        for app in (state["koba"], state["ball"]):
            res = app.solve(tol=s["tol"])
            obs.ops += 1
            obs.check(res.converged, "converged")
            iterations += res.iterations
            residual = max(residual, app.solver.balance_residual(res))
            obs.vertices += _vertices(app) * app.solver.num_groups * res.iterations
            lap()
        des = state["des"]
        programs, faces = des.solver.build_programs()
        rep = DataDrivenRuntime(s["des_cores"], machine=MACHINE).run(
            programs, des.pset.patch_proc
        )
        phi, _ = des.solver.accumulate(faces)
        obs.ops += 1
        obs.check(rep.vertices_solved == _vertices(des), "vertices_solved")
        obs.check(np.array_equal(phi, state["reference"]), "flux_bitwise")
        obs.vertices += rep.vertices_solved
        obs.virtual = {"makespan": rep.makespan}
        obs.add_reports([rep], [rep])
        obs.layers["sweep.solver.iterations"] = iterations
        obs.layers["sweep.solver.balance_residual"] = residual
        obs.layers.update(state["dag"])
        return obs


class ReactorResilient(Workload):
    """The same simulator / scheduler / transport driven one pop at a
    time (``generalloop``) with acks, timers, checkpoints, failover,
    snapshots and a host kill + resume."""

    def setup(self, lap) -> dict:
        s = self.size
        app = JSNTU.reactor(
            s["resolution"], total_cores=s["cores"], machine=MACHINE,
            patch_size=s["patch_size"], grain=s["grain"], groups=1,
        )
        _construct(app)
        return {"app": app, "dag": _dag_size([app])}

    def body(self, state: dict, tmp: str, lap) -> Obs:
        obs = Obs()
        s = self.size
        app = state["app"]
        solver, patch_proc = app.solver, app.pset.patch_proc
        seed = self.seed

        def run(faults=None, resilient=False, persist=None, deadline=None):
            programs, _ = solver.build_programs(compute=False, resilient=resilient)
            rt = DataDrivenRuntime(s["cores"], machine=MACHINE, faults=faults)
            t0 = time.perf_counter()
            rep = rt.run(programs, patch_proc, deadline=deadline, persist=persist)
            return rep, time.perf_counter() - t0

        # A far-away virtual deadline is what routes a fault-free run
        # through the general loop instead of the batched clean loop.
        clean, t_clean = run(deadline=1e3)
        armed, t_armed = run(
            persist=SnapshotManager(
                os.path.join(tmp, "armed"), every=s["snapshot_every"], fsync=False))
        lap()
        lossy, _ = run(FaultPlan(
            p_drop=s["p_drop"], p_duplicate=s["p_duplicate"], seed=2 * seed + 1))
        lap()
        crash, _ = run(FaultPlan(
            crashes=(CrashFault(proc=1, time=s["crash_at"] * clean.makespan),),
            p_drop=s["crash_p_drop"], seed=2 * seed + 2), resilient=True)
        lap()
        full = _vertices(app)
        for rep, name in ((clean, "clean"), (lossy, "lossy"), (armed, "armed")):
            obs.ops += 1
            obs.check(rep.vertices_solved == full, f"vertices_solved.{name}")
        obs.ops += 1  # a crash re-executes lost runs: never fewer vertices
        obs.check(crash.vertices_solved >= full and crash.crashes == 1,
                  "vertices_solved.crash")
        baseline = report_fingerprint(clean)
        obs.check(report_fingerprint(armed) == baseline, "fingerprint.armed")

        def factory():
            programs, _ = solver.build_programs(compute=False)
            return DataDrivenRuntime(s["cores"], machine=MACHINE), programs, patch_proc, None

        resumed, mgr, killed = kill_and_resume(
            factory, kill_at=clean.events // 2, every=s["snapshot_every"],
            workdir=os.path.join(tmp, "killed"),
        )
        obs.ops += 1
        obs.check(killed and report_fingerprint(resumed) == baseline,
                  "fingerprint.resumed")
        reports = [clean, lossy, crash, armed, resumed]
        obs.vertices = sum(r.vertices_solved for r in reports)
        obs.virtual = {
            "makespan": sum(r.makespan for r in reports),
            "fault_slowdown": crash.makespan / clean.makespan,
        }
        obs.paired = {"snapshot_cost_ratio": t_armed / t_clean}
        obs.add_reports(reports, [crash])
        # The resumed report restores the killed run's snapshot counters;
        # count what the managers actually wrote instead.
        obs.layers["persist.snapshots"] = armed.snapshots + mgr.snapshots
        obs.layers["persist.snapshot_bytes"] = armed.snapshot_bytes + mgr.bytes_written
        obs.layers.update(state["dag"])
        return obs


class ServiceMix(Workload):
    """One seeded arrival trace on ``SweepService``: a calm stretch,
    then bursts at several times capacity; many tiny deadline-bound
    ``compute=True`` runs whose per-run fixed cost dominates."""

    TENANTS = 4

    def __init__(self, size: dict, seed: int):
        super().__init__(size, seed)
        self.config = ServiceConfig(
            workers=2, tenant_slots=size["tenant_slots"],
            global_slots=size["global_slots"], degrade_at=size["degrade_at"],
            default_deadline=size["deadline"], seed=seed,
        )
        self.arrivals = self._arrivals()

    def _spec(self, unstructured: bool, **kw) -> JobSpec:
        s = self.size
        if unstructured:
            return JobSpec(kind="unstructured", size=s["disk_size"],
                           patch=s["disk_patch"], **kw)
        return JobSpec(kind="structured", size=s["cube_size"], **kw)

    def _arrivals(self) -> list[tuple[float, JobSpec]]:
        """(time, spec) per job.  The trace is stratified - every 5 jobs
        are 3 structured and 2 unstructured, every 4th carries a lossy
        plan, tenants take turns, bursts are evenly filled - so seeds
        differ in job and fault-plan seeds and in arrival jitter, not
        in how much work the trace holds or how deep its queues get."""
        s = self.size
        rng = np.random.default_rng((self.seed, 4242))
        spacing, gap, width = s["calm_spacing"], s["burst_gap"], s["burst_width"]
        calm = s["calm_jobs"]
        per_burst = s["burst_jobs"]
        out = []
        for j in range(s["jobs"]):
            plan = None
            if j % 4 == 3:
                plan = FaultPlan(p_drop=s["p_drop"], p_duplicate=s["p_duplicate"],
                                 seed=int(rng.integers(0, 2**20)))
            spec = self._spec(
                j % 5 in (1, 3), tenant=f"tenant-{j % self.TENANTS}",
                seed=int(rng.integers(0, 2**20)), faults=plan,
            )
            if j < calm:
                step, at = spacing, j * spacing
            else:
                burst, k = divmod(j - calm, per_burst)
                step = width / per_burst
                at = calm * spacing + (burst + 1) * gap + k * step
            out.append((at + float(rng.uniform(0.0, 0.25 * step)), spec))
        out.sort(key=lambda x: x[0])
        return out

    def setup(self, lap) -> dict:
        executor = JobExecutor()
        cfg = self.config
        for unstructured in (False, True):
            if unstructured:
                lap()
            spec = self._spec(unstructured, tenant="setup")
            for variant in (spec, spec.demoted(cfg.demote_grain, cfg.demote_patch)):
                _ = executor.scenario(variant).solver.topology
        return {"executor": executor}

    def body(self, state: dict, tmp: str, lap) -> Obs:
        obs = Obs()
        executor = state["executor"]
        reports = []
        executor.on_report = lambda spec, rep: reports.append(rep)
        hits0, builds0 = executor.scenario_hits, executor.scenario_builds
        wal = WriteAheadLog(os.path.join(tmp, "service.wal"), fsync=False)
        try:
            svc = SweepService(self.config, executor=executor, wal=wal)
            for at, spec in self.arrivals:
                svc.submit(spec, at=at)
            # Drain in slices so the harness can calibrate between them;
            # max_events only bounds a slice, the event order is unchanged.
            jobs = len(self.arrivals)
            for _ in range(4 * jobs):  # each job is a few events; bounded anyway
                results = svc.run_until_idle(max_events=self.size["lap_events"])
                if len(results) + len(svc.rejections) >= jobs:
                    break
                lap()
        finally:
            wal.close()
            executor.on_report = None
        done = [r for r in results if r.status == JobStatus.COMPLETED]
        m = svc.metrics()
        shed = sum(m["shed"].values())
        failed = sum(m["failed"].values())
        obs.ops = len(self.arrivals)
        obs.failed_ops = shed + failed  # a refused job is a failed one
        obs.jobs = len(done)
        obs.check(all(r.exact for r in done), "exact")
        obs.check(len(done) + shed + failed == len(self.arrivals), "job_ledger")
        latency = sorted(r.latency for r in done)
        # Highest percentile with at least ten samples beyond it.
        tail_index = max(0, len(latency) - 11)
        obs.virtual = {
            "makespan": svc.now,
            "job_p50_latency": statistics.median(latency),
            "job_tail_latency": latency[tail_index],
        }
        obs.add_reports(reports, reports)
        obs.layers.update({
            "service.completed": len(done),
            "service.shed": shed,
            "service.failed": failed,
            "service.demotions": m["demotions"],
            "service.scenario_builds": executor.scenario_builds - builds0,
            "service.scenario_hits": executor.scenario_hits - hits0,
            "service.tail_percentile": 100.0 * tail_index / max(1, len(latency)),
            "persist.wal_records": wal.records,
            "persist.wal_bytes": wal.bytes_written,
        })
        return obs


WORKLOADS = {
    "ball_sched": BallSched,
    "koba_sched": KobaSched,
    "physics_solve": PhysicsSolve,
    "reactor_resilient": ReactorResilient,
    "service_mix": ServiceMix,
}
