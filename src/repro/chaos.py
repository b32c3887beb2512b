"""Chaos campaigns: seeded random fault-space search for the runtime.

PR 1's fault tests replay a handful of hand-written plans; that proves
the recovery machinery works on the scenarios someone thought of.  The
scale the paper targets (76,800 cores) is adversarial in ways nobody
enumerates by hand - a partition healing mid-failover, a corrupted
duplicate racing a checkpoint, two cascading crashes bracketing a
straggler window.  This module searches that space mechanically:
generate N seeded random :class:`~repro.runtime.faults.FaultPlan`\\ s
mixing *every* fault type (crashes with cascades, stragglers, timed
link partitions, drop / duplicate / corrupt), run each over the
{structured, unstructured} x {hybrid, mpi_only} scenario matrix with
the invariant sanitizer armed, and hold every run to the strongest
available oracles: an **exact sweep order** (every cell solved, each
after its upwind cells - :meth:`~repro.sweep.SnSolver.accumulate`),
**bitwise-identical flux** to the fault-free reference and
stall-free termination.

Seed-reproducibility contract: the plan for campaign cell ``(seed,
nprocs)`` is a pure function of those two integers -
``random_fault_plan(seed, nprocs, space)`` derives everything from
``np.random.default_rng((seed, nprocs))``, and the plan's own injector
seed is drawn from the same generator.  A failing seed therefore
replays exactly, on any machine, from its number alone.

Generated plans always leave at least one survivor: explicit crashes
and cascade caps are drawn against a shared death budget of
``nprocs - 1``, so a campaign never trips the total-loss guard.
Partition windows are drawn well below the give-up age
(``RecoveryConfig.watchdog_horizon``), so every generated plan is
recoverable by construction - an unrecoverable plan (e.g. a
never-healing partition) is a *test* of the give-up rule, not a
campaign member.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import ReproError
from .framework import PatchSet
from .mesh import cube_structured, disk_tri_mesh
from .runtime import (
    CrashFault,
    DataDrivenRuntime,
    FaultPlan,
    LinkPartition,
    Machine,
    RecoveryConfig,
    StallError,
    StragglerWindow,
)
from .sweep import Material, MaterialMap, SnSolver, level_symmetric

__all__ = [
    "ChaosSpace",
    "CaseResult",
    "CampaignResult",
    "random_fault_plan",
    "build_scenario",
    "scenario_cores",
    "run_case",
    "run_campaign",
]

#: The campaign's scenario matrix (mirrors the golden-fixture matrix).
KINDS = ("structured", "unstructured")
MODES = ("hybrid", "mpi_only")


@dataclass(frozen=True)
class ChaosSpace:
    """The sampled fault space: which fault classes, how hard.

    ``intensity`` in (0, 1] scales every rate and count; ``horizon`` is
    the virtual-time window faults land in (roughly the expected
    makespan of the scenario).  Individual fault classes can be toggled
    to bisect a failing campaign.
    """

    intensity: float = 0.5
    horizon: float = 1e-3  # virtual seconds
    crashes: bool = True
    cascades: bool = True
    stragglers: bool = True
    partitions: bool = True
    drop: bool = True
    duplicate: bool = True
    corrupt: bool = True
    #: Flapping nodes: crash victims may restart (``restart_after``)
    #: and may crash *again* after rejoining.  Off by default - the
    #: extra draws are appended strictly after every legacy draw, so
    #: plans for a given ``(seed, nprocs)`` are bitwise-unchanged
    #: whenever flapping is off.
    flapping: bool = False

    def __post_init__(self):
        if not (0.0 < self.intensity <= 1.0):
            raise ReproError("chaos intensity must be in (0, 1]")
        if self.horizon <= 0:
            raise ReproError("chaos horizon must be positive")


def random_fault_plan(
    seed: int, nprocs: int, space: ChaosSpace = ChaosSpace()
) -> FaultPlan:
    """One seeded random plan: a pure function of ``(seed, nprocs)``.

    Deaths (explicit crashes plus cascade caps) are drawn against a
    shared budget of ``nprocs - 1``, guaranteeing survivors; partition
    heal windows stay a couple of retry backoffs long, far below the
    give-up age, so every generated plan is recoverable.
    """
    rng = np.random.default_rng((seed, nprocs))
    hz = space.horizon
    i = space.intensity

    budget = nprocs - 1  # max total deaths: always leave a survivor
    crashes: list[CrashFault] = []
    n_crashes = (
        int(rng.binomial(min(2, budget), 0.7 * i)) if space.crashes else 0
    )
    victims = (
        rng.choice(nprocs, size=n_crashes, replace=False)
        if n_crashes else np.empty(0, dtype=int)
    )
    budget -= n_crashes
    for p in victims:
        t = float(rng.uniform(0.1, 0.8)) * hz
        cascade, window, cmax = 0.0, 0.0, 0
        if space.cascades and budget > 0 and rng.random() < 0.5 * i:
            cmax = int(rng.integers(1, budget + 1))
            budget -= cmax
            cascade = float(rng.uniform(0.2, 0.8))
            window = float(rng.uniform(0.05, 0.2)) * hz
        crashes.append(
            CrashFault(int(p), t, cascade=cascade,
                       cascade_window=window, cascade_max=cmax)
        )

    stragglers: list[StragglerWindow] = []
    if space.stragglers:
        for _ in range(int(rng.binomial(3, 0.5 * i))):
            p = int(rng.integers(0, nprocs))
            start = float(rng.uniform(0.0, 0.7)) * hz
            length = float(rng.uniform(0.1, 0.5)) * hz
            factor = float(rng.uniform(1.5, 4.0))
            stragglers.append(StragglerWindow(p, start, start + length, factor))

    partitions: list[LinkPartition] = []
    if space.partitions and nprocs >= 2:
        for _ in range(int(rng.binomial(2, 0.6 * i))):
            src, dst = (int(q) for q in rng.choice(nprocs, 2, replace=False))
            start = float(rng.uniform(0.0, 0.6)) * hz
            length = float(rng.uniform(0.05, 0.35)) * hz
            partitions.append(LinkPartition(src, dst, start, start + length))

    p_drop = float(rng.uniform(0.0, 0.08)) * i if space.drop else 0.0
    p_dup = float(rng.uniform(0.0, 0.08)) * i if space.duplicate else 0.0
    p_cor = float(rng.uniform(0.0, 0.08)) * i if space.corrupt else 0.0
    inj_seed = int(rng.integers(0, 2**31))

    if space.flapping:
        # Appended strictly after every legacy draw: with flapping off,
        # the (seed, nprocs) -> plan mapping above is bitwise-stable.
        flapped: list[CrashFault] = []
        for c in crashes:
            if rng.random() < 0.7:
                ra = float(rng.uniform(0.15, 0.45)) * hz
                c = CrashFault(c.proc, c.time, cascade=c.cascade,
                               cascade_window=c.cascade_window,
                               cascade_max=c.cascade_max, restart_after=ra)
                if rng.random() < 0.5 * i:
                    # A true flapper: dies again after rejoining.
                    t2 = c.time + ra + float(rng.uniform(0.1, 0.4)) * hz
                    ra2 = (
                        float(rng.uniform(0.1, 0.3)) * hz
                        if rng.random() < 0.5 else 0.0
                    )
                    flapped.append(CrashFault(c.proc, t2, restart_after=ra2))
            flapped.append(c)
        crashes = flapped

    return FaultPlan(
        crashes=tuple(crashes),
        stragglers=tuple(stragglers),
        partitions=tuple(partitions),
        p_drop=p_drop,
        p_duplicate=p_dup,
        p_corrupt=p_cor,
        seed=inj_seed,
    )


# -- scenario construction (mirrors the golden-fixture matrix) ------------------


def scenario_cores(mode: str) -> int:
    """Simulated cores of a campaign cell (4 per process)."""
    return 16 if mode == "hybrid" else 8


def build_scenario(kind: str, mode: str, size: int = 8,
                   patch: int | None = None, sn: int | None = None,
                   grain: int = 16):
    """(machine, cores, pset, solver) of one campaign cell.

    Tiny meshes on the 4-core machine model: the point is interleaving
    coverage, not scale, and a campaign runs hundreds of these.  The
    material is a uniform isotropic scatterer (sigma_t = 1, c = 0.5)
    under a unit source.  ``patch`` is the cells per axis of a
    structured patch or the target cell count of an unstructured one;
    it and the level-symmetric order ``sn`` default per kind (4 and
    S2 structured, 20 and S4 unstructured).
    """
    if kind not in ("structured", "unstructured"):
        raise ReproError(f"unknown chaos scenario kind {kind!r}")
    structured = kind == "structured"
    if patch is None:
        patch = 4 if structured else 20
    if sn is None:
        sn = 2 if structured else 4
    machine = Machine(cores_per_proc=4)
    cores = scenario_cores(mode)
    nprocs = machine.layout(cores, mode).nprocs
    if structured:
        mesh = cube_structured(size, length=4.0)
        pset = PatchSet.from_structured(mesh, (patch,) * 3, nprocs=nprocs)
    else:
        mesh = disk_tri_mesh(size)
        pset = PatchSet.from_unstructured(mesh, patch, nprocs=nprocs)
    mm = MaterialMap.uniform(Material.isotropic(1.0, 0.5), mesh.num_cells)
    q = np.ones((mesh.num_cells, 1))
    solver = SnSolver(pset, level_symmetric(sn), mm, q, grain=grain)
    return machine, cores, pset, solver


# -- campaign execution ---------------------------------------------------------


@dataclass
class CaseResult:
    """Outcome of one (kind, mode, seed) campaign cell."""

    kind: str
    mode: str
    seed: int
    ok: bool  # completed AND bitwise-exact
    exact: bool  # flux bitwise-identical to the fault-free reference
    stalled: bool  # a send gave up: StallError with its StallReport
    error: str = ""  # non-stall failure (sanitizer, order check, ...)
    races: int = 0  # happens-before races (only when hb-checking)
    makespan: float = 0.0
    faults: dict = field(default_factory=dict)  # RunReport.fault_summary()
    membership: dict = field(default_factory=dict)  # membership_summary() if armed
    plan: dict = field(default_factory=dict)  # plan size per fault class


def _plan_shape(plan: FaultPlan) -> dict:
    return {
        "crashes": len(plan.crashes),
        "cascade_max": sum(c.cascade_max for c in plan.crashes),
        "stragglers": len(plan.stragglers),
        "partitions": len(plan.partitions),
        "p_drop": plan.p_drop,
        "p_duplicate": plan.p_duplicate,
        "p_corrupt": plan.p_corrupt,
    }


def _hb_check(rep, label: str, opt) -> int:
    """Vector-clock-check one traced run; returns the race count.

    ``opt`` is ``True`` (check only) or a directory (check + export
    the HB record stream for ``repro.analysis check-trace``).  Lazy
    import: the checker is optional equipment, campaigns without
    ``hb`` never touch :mod:`repro.analysis`.
    """
    from .analysis import check_report, dump_hb_json

    if opt is not True:
        os.makedirs(opt, exist_ok=True)
        dump_hb_json(rep.hb_events, os.path.join(opt, f"{label}.hb.json"))
    return len(check_report(rep))


def run_case(
    kind: str,
    mode: str,
    seed: int,
    space: ChaosSpace = ChaosSpace(),
    size: int = 8,
    sanitize: bool = True,
    demotion: bool = False,
    hb=None,
    membership: bool = False,
    _scenario=None,
    _reference=None,
) -> CaseResult:
    """Run one campaign cell against the order check and the
    bitwise-exactness oracle; an order violation fails the cell.

    ``demotion`` arms degraded-mode demotion for the run - the oracle
    is unchanged (the whole point: migrating a slow rank's patches
    must not cost exactness).  ``hb`` (``None`` | ``True`` | directory) arms event
    tracing and holds the completed run to the happens-before checker
    on top of the flux oracle - any race fails the cell.
    ``membership`` arms the elastic-membership subsystem: crashes are
    then discovered by missed heartbeats (no detection oracle) and
    restarting ranks rejoin via state transfer - again, same oracle.
    ``_scenario``/``_reference`` let :func:`run_campaign` reuse the
    built scenario and fault-free reference flux across seeds.
    """
    machine, cores, pset, solver = (
        _scenario if _scenario is not None else build_scenario(kind, mode, size)
    )
    if _reference is None:
        _reference, _, _ = solver.sweep_once()
    nprocs = machine.layout(cores, mode).nprocs
    plan = random_fault_plan(seed, nprocs, space)
    res = CaseResult(kind=kind, mode=mode, seed=seed, ok=False, exact=False,
                     stalled=False, plan=_plan_shape(plan))
    progs, record = solver.build_programs(resilient=True)
    rt = DataDrivenRuntime(
        cores, machine=machine, mode=mode, faults=plan,
        sanitize=sanitize, trace=hb is not None,
        recovery=(
            RecoveryConfig(membership=membership, demotion=demotion)
            if membership or demotion else None
        ),
    )
    try:
        rep = rt.run(progs, pset.patch_proc)
        phi, _ = solver.accumulate(record)  # refuses an out-of-order sweep
    except StallError as e:
        res.stalled = True
        res.error = str(e)
        return res
    except ReproError as e:
        res.error = str(e)
        return res
    res.exact = bool(
        phi.shape == _reference.shape
        and phi.tobytes() == np.ascontiguousarray(_reference).tobytes()
    )
    res.ok = res.exact
    if hb is not None:
        res.races = _hb_check(rep, f"{kind}_{mode}_{seed}", hb)
        if res.races:
            res.ok = False
            res.error = f"{res.races} happens-before race(s)"
    res.makespan = rep.makespan
    res.faults = rep.fault_summary()
    if membership:
        res.membership = rep.membership_summary()
    return res


@dataclass
class CampaignResult:
    """Aggregate of one chaos campaign."""

    space: ChaosSpace
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def stalls(self) -> int:
        return sum(1 for c in self.cases if c.stalled)

    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.ok]

    def summary(self) -> dict:
        """The per-campaign JSON summary (benchmarks write this out)."""
        agg: dict[str, float] = {}
        for c in self.cases:
            for k, v in c.faults.items():
                agg[k] = agg.get(k, 0) + v
        return {
            "space": asdict(self.space),
            "total": self.total,
            "passed": self.passed,
            "exact": sum(1 for c in self.cases if c.exact),
            "stalls": self.stalls,
            "errors": [
                {"kind": c.kind, "mode": c.mode, "seed": c.seed,
                 "stalled": c.stalled, "error": c.error}
                for c in self.failures()
            ],
            "fault_totals": agg,
            "cases": [asdict(c) for c in self.cases],
        }

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=1)


def run_campaign(
    seeds,
    kinds=KINDS,
    modes=MODES,
    space: ChaosSpace = ChaosSpace(),
    size: int = 8,
    sanitize: bool = True,
    demotion: bool = False,
    hb=None,
    membership: bool = False,
    progress=None,
) -> CampaignResult:
    """Run the full (kind, mode, seed) matrix; never raises on a case.

    Scenario meshes and fault-free references are built once per
    (kind, mode) cell and shared across seeds.  ``demotion`` arms
    degraded-mode demotion on every case (same oracle); ``hb`` arms
    the happens-before checker on every case; ``membership`` arms the
    elastic-membership subsystem on every case (see :func:`run_case`).
    ``progress``, when given, is called with each finished
    :class:`CaseResult`.
    """
    out = CampaignResult(space=space)
    for kind in kinds:
        for mode in modes:
            scenario = build_scenario(kind, mode, size)
            reference, _, _ = scenario[3].sweep_once()
            for seed in seeds:
                case = run_case(
                    kind, mode, int(seed), space, size, sanitize, demotion,
                    hb=hb, membership=membership,
                    _scenario=scenario, _reference=reference,
                )
                out.cases.append(case)
                if progress is not None:
                    progress(case)
    return out
