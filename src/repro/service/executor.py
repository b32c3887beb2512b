"""Job execution: one attempt of one spec on the DataDrivenRuntime.

The executor is the service's only contact with the runtime, and it
talks exclusively to the *facade*: ``DataDrivenRuntime`` in, structured
exceptions and a ``RunReport`` out.  It never reaches into transport,
scheduler, router or recovery internals -
``tests/test_runtime_layers.py::TestLayering::test_service_uses_only_the_runtime_facade``
pins that boundary to the module graph.

Two caches make the service cheap at traffic:

* **scenario cache** - mesh, patch decomposition, sweep DAG,
  priorities and the fault-free reference flux are pure functions of
  :meth:`JobSpec.build_fields`; they are built once per distinct
  scenario and shared across every job, tenant and mode that names it
  (the content-hash artifact caching of ROADMAP item 3);
* the **result cache** lives one layer up in the service proper,
  keyed by the full content hash - the executor only computes.

Every attempt maps to exactly one structured :class:`AttemptOutcome`;
the executor never lets a runtime exception escape unclassified.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .._util import ReproError
from ..chaos import build_scenario, scenario_cores
from ..framework import PatchSet
from ..runtime import (
    DataDrivenRuntime,
    DeadlineExceeded,
    Machine,
    RecoveryConfig,
    StallError,
)
from ..sweep import SnSolver
from .spec import JobSpec

__all__ = ["AttemptOutcome", "JobExecutor"]

#: Give-up age armed on fault-bearing runs: a job with a send un-acked
#: this long is *diagnosed* (StallReport) instead of retrying against
#: its deadline.
WATCHDOG_HORIZON = 5e-3
#: Distinct scenarios kept built; the oldest is evicted first.
SCENARIO_CACHE_SIZE = 32


@dataclass
class AttemptOutcome:
    """Structured result of one execution attempt."""

    status: str  # "ok" | "deadline" | "stall" | "error" | "invalid"
    duration: float  # virtual seconds the cluster slice was held
    makespan: float = 0.0  # DES makespan (== duration on "ok")
    flux_crc: int | None = None
    exact: bool | None = None  # flux bitwise-equal to fault-free reference
    detail: str = ""
    stall: dict | None = None  # StallReport.to_dict() on "stall"


@dataclass
class _Scenario:
    """One cached scenario: everything derivable from build_fields."""

    machine: Machine
    pset: PatchSet
    solver: SnSolver
    reference: bytes  # fault-free flux, raw bytes
    reference_crc: int
    procs: dict = field(default_factory=dict)  # mode -> patch_proc

    def layout(self, mode: str) -> tuple[int, np.ndarray]:
        """Cores and patch -> process map of a run in ``mode``."""
        cores = scenario_cores(mode)
        if mode not in self.procs:
            nprocs = self.machine.layout(cores, mode).nprocs
            self.procs[mode] = self.pset.assign(nprocs)
        return cores, self.procs[mode]


class JobExecutor:
    """Builds scenarios (cached) and runs attempts on the runtime."""

    def __init__(self, trace: bool = False):
        #: Arm event/HB tracing on every attempt's runtime.  Each clean
        #: attempt's :class:`RunReport` is handed to :attr:`on_report`
        #: (when set) so a harness can export Chrome traces or replay
        #: the happens-before checker per job.
        self.trace = trace
        self.on_report = None  # callable(spec, report) | None
        self._scenarios: dict[tuple, _Scenario] = {}
        self.scenario_builds = 0  # cache misses (observability)
        self.scenario_hits = 0

    # -- scenario construction --------------------------------------------------

    def scenario(self, spec: JobSpec) -> _Scenario:
        """The cached scenario for ``spec`` (built on first use).

        Built under the ``hybrid`` layout: its 4 processes are the
        smallest patch-count floor a mode puts on an unstructured
        decomposition, and a mode with more processes than that build
        has patches gets its own build under its own floor.
        """
        builds = self.scenario_builds
        key = spec.build_fields()
        sc = self._scenarios.get(key) or self._build(key, spec, "hybrid")
        mode = spec.mode
        if sc.machine.layout(scenario_cores(mode), mode).nprocs > sc.pset.num_patches:
            key += (mode,)
            sc = self._scenarios.get(key) or self._build(key, spec, mode)
        self.scenario_hits += self.scenario_builds == builds
        return sc

    def _build(self, key: tuple, spec: JobSpec, mode: str) -> _Scenario:
        machine, _, pset, solver = build_scenario(
            spec.kind, mode, spec.size,
            patch=spec.patch, sn=spec.sn, grain=spec.grain,
        )
        phi, _, _ = solver.sweep_once()
        ref = np.ascontiguousarray(phi).tobytes()
        if len(self._scenarios) >= SCENARIO_CACHE_SIZE:
            # FIFO eviction: drop the oldest scenario (insertion order).
            del self._scenarios[next(iter(self._scenarios))]
        sc = self._scenarios[key] = _Scenario(
            machine=machine, pset=pset, solver=solver,
            reference=ref, reference_crc=zlib.crc32(ref),
            procs={mode: pset.patch_proc},
        )
        self.scenario_builds += 1
        return sc

    # -- attempt execution ------------------------------------------------------

    def execute(self, spec: JobSpec, deadline: float | None) -> AttemptOutcome:
        """Run one attempt of ``spec`` under ``deadline``.

        Classifies every outcome: a clean run yields ``ok`` with the
        flux checksum and the exactness verdict against the fault-free
        reference (a run that solved out of order is ``ok`` and not
        exact, the violation its detail); a budget overrun yields ``deadline`` with the
        consumed slice; a stall yields ``stall`` with the
        serialized :class:`~repro.runtime.StallReport`; any other
        structured runtime failure yields ``error``.
        """
        try:
            sc = self.scenario(spec)
        except ReproError as e:
            return AttemptOutcome(
                status="invalid", duration=0.0, detail=str(e)
            )
        faulty = spec.faults is not None
        recovery = (
            RecoveryConfig(watchdog_horizon=WATCHDOG_HORIZON)
            if faulty else None
        )
        try:
            progs, record = sc.solver.build_programs(resilient=faulty)
            cores, procs = sc.layout(spec.mode)
            rt = DataDrivenRuntime(
                cores, machine=sc.machine, mode=spec.mode,
                faults=spec.faults, recovery=recovery,
                trace=self.trace,
            )
            rep = rt.run(progs, procs, deadline=deadline)
        except DeadlineExceeded as e:
            return AttemptOutcome(
                status="deadline",
                duration=e.deadline,  # the full slice was consumed
                makespan=e.report.makespan,
                detail=str(e),
            )
        except StallError as e:
            return AttemptOutcome(
                status="stall",
                duration=min(e.report.now, deadline)
                if deadline is not None else e.report.now,
                detail="a send stayed un-acked past the give-up age",
                stall=e.report.to_dict(),
            )
        except ReproError as e:
            # Plan/layout mismatches, refused programs, sanitizer
            # trips: structured failure, zero slice beyond the report.
            return AttemptOutcome(
                status="error", duration=0.0, detail=str(e)
            )
        if self.on_report is not None:
            self.on_report(spec, rep)
        try:
            phi, _ = sc.solver.accumulate(record)
        except ReproError as e:
            # The run finished but solved out of order: no flux to trust.
            return AttemptOutcome(
                status="ok", duration=rep.makespan, makespan=rep.makespan,
                exact=False, detail=str(e),
            )
        blob = np.ascontiguousarray(phi).tobytes()
        return AttemptOutcome(
            status="ok",
            duration=rep.makespan,
            makespan=rep.makespan,
            flux_crc=zlib.crc32(blob),
            exact=blob == sc.reference,
        )
