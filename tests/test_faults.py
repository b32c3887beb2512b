"""Fault injection & fault-tolerant runtime tests.

The headline invariant: a faulty run (crashes + message drops +
duplications) with recovery enabled produces *bitwise-identical*
numerics to the fault-free reference sweep, and a zero-fault run with
the recovery machinery armed stays within the checkpoint overhead
budget of the fault-free makespan.
"""

import dataclasses
import inspect
import warnings

import pytest
from numpy.testing import assert_array_equal

from repro._util import ReproError
from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.runtime import (
    AdaptiveConfig,
    CrashFault,
    DataDrivenRuntime,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    Machine,
    RecoveryConfig,
    StragglerWindow,
    faults,
)
from tests.conftest import make_solver

CORES = 16  # 4 procs x (1 master + 3 workers) on the small machine


def _setup(nprocs=4, **solver_kw):
    machine = Machine(cores_per_proc=4)
    mesh = cube_structured(8, length=4.0)
    pset = PatchSet.from_structured(mesh, (4, 4, 4), nprocs=nprocs)
    solver = make_solver(pset, grain=16, **solver_kw)
    return machine, pset, solver


def _reference_phi():
    _, _, s = _setup()
    ref, _, _ = s.sweep_once(mode="fast")
    return ref


# -- fault plan / injector / config ----------------------------------------------


class TestFaultPlan:
    def test_crash_validation(self):
        with pytest.raises(ReproError):
            CrashFault(proc=-1, time=0.0)
        with pytest.raises(ReproError):
            CrashFault(proc=0, time=-1.0)

    @pytest.mark.parametrize("kw", [
        {"time": float("nan")},
        {"time": 1e-4, "restart_after": float("nan")},
        {"time": 1e-4, "restart_after": float("inf")},
        {"time": 1e-4, "cascade_window": float("nan")},
        {"time": 1e-4, "cascade": 0.5, "cascade_window": float("nan"),
         "cascade_max": 1},
    ], ids=["nan-time", "nan-restart", "inf-restart",
            "nan-window", "nan-window-cascading"])
    def test_non_finite_crash_fields_are_refused(self, kw):
        """A NaN passes every ``< 0`` check: a NaN crash time hangs the
        run, a NaN restart_after never restarts.  Both are refused
        where the fault is built, before any run; so are an infinite
        restart delay (it would dodge the total-loss guard) and cascade
        window (``0 * inf`` draws a NaN follower time)."""
        field = next(k for k in ("cascade_window", "restart_after", "time")
                     if k in kw)
        with pytest.raises(ReproError, match=field):
            CrashFault(proc=1, **kw)

    def test_straggler_validation(self):
        with pytest.raises(ReproError):
            StragglerWindow(0, 2.0, 1.0, 2.0)  # start >= end
        with pytest.raises(ReproError):
            StragglerWindow(0, 0.0, 1.0, 0.5)  # speeds things up
        with pytest.raises(ReproError):
            StragglerWindow(-1, 0.0, 1.0, 2.0)

    def test_probability_validation(self):
        with pytest.raises(ReproError):
            FaultPlan(p_drop=1.0)
        with pytest.raises(ReproError):
            FaultPlan(p_duplicate=-0.1)

    def test_needs_recovery(self):
        assert not FaultPlan().needs_recovery()
        assert not FaultPlan(
            stragglers=(StragglerWindow(0, 0.0, 1.0, 2.0),)
        ).needs_recovery()
        assert FaultPlan(p_drop=0.1).needs_recovery()
        assert FaultPlan(p_duplicate=0.1).needs_recovery()
        assert FaultPlan(crashes=(CrashFault(0, 1.0),)).needs_recovery()

    def test_crashed_procs(self):
        plan = FaultPlan(crashes=(CrashFault(2, 1.0), CrashFault(0, 2.0)))
        assert plan.crashed_procs() == {0, 2}

    def test_lists_normalized_to_tuples(self):
        plan = FaultPlan(crashes=[CrashFault(0, 1.0)],
                         stragglers=[StragglerWindow(0, 0.0, 1.0, 2.0)])
        assert isinstance(plan.crashes, tuple)
        assert isinstance(plan.stragglers, tuple)

    def test_validate_warns_when_window_starts_past_horizon(self):
        # A straggler or partition window that only opens at or beyond
        # the armed watchdog horizon silently tests nothing: the run
        # quiesces or is declared stalled before the fault fires.
        late = FaultPlan(
            stragglers=(StragglerWindow(0, 5.0, 6.0, 2.0),),
            partitions=(LinkPartition(0, 1, 5.0, 6.0),),
        )
        with pytest.warns(UserWarning, match="straggler window"):
            with pytest.warns(UserWarning, match="partition of link"):
                late.validate(4, horizon=1.0)
        # Windows inside the horizon - or no horizon armed at all -
        # must stay silent.
        early = FaultPlan(
            stragglers=(StragglerWindow(0, 0.0, 1.0, 2.0),),
            partitions=(LinkPartition(0, 1, 0.0, 0.5),),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            early.validate(4, horizon=1.0)
            late.validate(4)


class TestFaultInjector:
    def test_slowdown_windows_multiply(self):
        inj = FaultInjector(FaultPlan(stragglers=(
            StragglerWindow(1, 0.0, 2.0, 3.0),
            StragglerWindow(1, 1.0, 3.0, 2.0),
        )))
        assert inj.slowdown(1, 0.5) == 3.0
        assert inj.slowdown(1, 1.5) == 6.0  # overlap multiplies
        assert inj.slowdown(1, 2.5) == 2.0
        assert inj.slowdown(1, 3.5) == 1.0  # window closed
        assert inj.slowdown(0, 1.5) == 1.0  # other procs unaffected

    def test_zero_rate_injector_is_inert(self):
        inj = FaultInjector(FaultPlan(seed=5))
        assert all(inj.message_fate() == "deliver" for _ in range(50))
        assert not any(inj.ack_dropped() for _ in range(50))

    def test_fates_deterministic_under_seed(self):
        a = FaultInjector(FaultPlan(p_drop=0.3, p_duplicate=0.3, seed=9))
        b = FaultInjector(FaultPlan(p_drop=0.3, p_duplicate=0.3, seed=9))
        assert [a.message_fate() for _ in range(200)] == [
            b.message_fate() for _ in range(200)
        ]

    def test_all_fates_occur(self):
        inj = FaultInjector(FaultPlan(p_drop=0.3, p_duplicate=0.3, seed=0))
        fates = {inj.message_fate() for _ in range(200)}
        assert fates == {"deliver", "drop", "duplicate"}


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ReproError, match="watchdog_horizon"):
            RecoveryConfig(watchdog_horizon=-1e-6)
        RecoveryConfig(watchdog_horizon=0.0)  # 0 = watchdog off

    @pytest.mark.parametrize("horizon", [float("nan"), True, "1e-3", None],
                             ids=["nan", "bool", "str", "none"])
    def test_watchdog_horizon_must_be_a_number(self, horizon):
        """NaN compares false against every clock and would silently
        disarm the watchdog; ``True`` would read as a 1 s horizon."""
        with pytest.raises(ReproError, match="watchdog_horizon"):
            RecoveryConfig(watchdog_horizon=horizon)

    def test_constants_keep_the_deleted_invariants(self):
        """What the deleted config validators enforced, now a property
        of the constants that replaced the fields."""
        assert 0 < faults.ACK_TIMEOUT <= faults.MAX_RTO
        assert 0 < faults.MIN_RTO <= faults.MAX_RTO
        # A suspicion bar below one probe period suspects every rank.
        assert (0 < faults.HEARTBEAT_INTERVAL < faults.MIN_TIMEOUT
                <= faults.MAX_TIMEOUT)
        assert faults.BACKOFF >= 1 and faults.MAX_RETRIES >= 1
        assert 0 < faults.SRTT_GAIN < 1 and 0 < faults.RTTVAR_GAIN < 1
        assert faults.RTO_K > 0
        assert faults.CHECKPOINT_INTERVAL > 0 and faults.DETECTION_DELAY >= 0
        assert faults.DEMOTION_INTERVAL > 0 and faults.DEMOTION_FACTOR > 1
        assert faults.DEMOTION_PATIENCE >= 1 and faults.DEMOTION_MAX >= 0
        assert faults.PROBE_COST >= 0 and faults.REJOIN_PROBES >= 1
        assert faults.REBALANCE_BUDGET >= 0

    def test_settable_surface(self):
        """Five settable values: three recovery fields, two adaptive
        switches, and no second way into the adaptive config."""
        assert [f.name for f in dataclasses.fields(RecoveryConfig)] == [
            "watchdog_horizon", "adaptive", "membership",
        ]
        assert [f.name for f in dataclasses.fields(AdaptiveConfig)] == [
            "adaptive_rto", "demotion",
        ]
        params = inspect.signature(DataDrivenRuntime.__init__).parameters
        assert "adaptive" not in params
        assert "recovery" in params

    @pytest.mark.parametrize("mechanism,kw", [
        ("crash recovery",
         {"faults": FaultPlan(crashes=(CrashFault(1, 1e-4),))}),
        ("degraded-mode demotion",
         {"recovery": RecoveryConfig(adaptive=AdaptiveConfig(demotion=True))}),
        ("elastic membership", {"recovery": RecoveryConfig(membership=True)}),
    ], ids=["crash", "demotion", "membership"])
    def test_migrations_name_the_first_non_resilient_program(
        self, mechanism, kw
    ):
        """One precondition for every mechanism that migrates programs:
        the error names the mechanism and the first offending program."""
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        for p in (progs[5], progs[9]):
            p.resilient_input = False
        with pytest.raises(ReproError) as err:
            DataDrivenRuntime(CORES, machine=machine, **kw).run(
                progs, pset.patch_proc
            )
        msg = str(err.value)
        assert msg.startswith(f"{mechanism} replays streams")
        assert repr(progs[5].id) in msg
        assert repr(progs[9].id) not in msg
        assert "resilient=True" in msg


# -- program checkpoint/restore --------------------------------------------------


class TestCheckpointRestore:
    def test_restore_rewinds_local_context(self):
        _, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        for p in progs:
            p.init()
        prog = max(progs, key=lambda p: len(p._heap))  # has ready work
        snap = prog.checkpoint()
        before = prog.remaining_workload()
        prog.compute()  # consumes ready vertices
        assert prog.remaining_workload() < before
        prog.restore(snap)
        assert prog.remaining_workload() == before
        # Snapshot is reusable (second failure): restore again.
        prog.compute()
        prog.restore(snap)
        assert prog.remaining_workload() == before

    def test_shared_attrs_not_copied(self):
        _, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        prog = progs[0]
        prog.init()
        snap = prog.checkpoint()
        g, cg = prog.graph, prog.cells_global
        prog.compute()
        prog.restore(snap)
        assert prog.graph is g  # topology stays shared, not deep-copied
        assert prog.cells_global is cg
        assert "graph" not in snap

    def test_resilient_input_dedupes_edges(self):
        """Duplicate stream content (same edge ids) must be a no-op."""
        _, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        # Find a program with a remote upwind dependency and feed it a
        # synthetic duplicated stream via a real sender's emissions.
        by_id = {p.id: p for p in progs}
        for p in progs:
            p.init()
        sender = max(progs, key=lambda p: len(p._heap))
        sender.compute()
        outs = []
        while (o := sender.output()) is not None:
            outs.append(o)
        remote = [o for o in outs if o.dst != sender.id]
        if not remote:  # pragma: no cover - mesh-dependent
            pytest.skip("no remote stream emitted")
        s0 = remote[0]
        dst = by_id[s0.dst]
        before = dst.remaining_workload()
        dst.input(s0)
        counts_after_one = list(dst._counts)
        dst.input(s0)  # exact duplicate: must change nothing
        assert dst._counts == counts_after_one
        assert dst.remaining_workload() == before  # input never solves


# -- fault-tolerant runtime integration ------------------------------------------


class TestFaultTolerantRun:
    def test_crash_recovery_bitwise_identical_numerics(self):
        """Headline: crash + drops + duplicates, same flux bit-for-bit."""
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(
            crashes=(CrashFault(proc=1, time=150e-6),),
            p_drop=0.05, p_duplicate=0.05, seed=7,
        )
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 1
        assert rep.reexecutions > 0
        assert rep.failover_time > 0
        assert rep.checkpoints > 0
        assert rep.breakdown.by_category["recovery"] > 0

    def test_crash_failover_completes_all_work(self):
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(proc=2, time=100e-6),), seed=1)
        progs, _ = s.build_programs(compute=False, resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        # Every program drained its workload (checked by the runtime,
        # which raises otherwise) and all vertices were solved at least
        # once; re-execution means possibly more runs, never fewer.
        assert rep.vertices_solved >= s.topology.num_vertices
        assert all(p.remaining_workload() == 0 for p in progs)
        assert rep.crashes == 1

    def test_drops_and_duplicates_without_crash(self):
        """Lossy network alone (no replay): uid dedup + retries suffice,
        even for non-resilient programs."""
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(p_drop=0.1, p_duplicate=0.05, seed=3)
        progs, faces = s.build_programs()  # resilient NOT required
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.drops > 0
        assert rep.retries > 0
        assert rep.timeouts >= rep.retries
        assert rep.reexecutions == 0

    def test_double_crash_recovers(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(
            crashes=(CrashFault(1, 120e-6), CrashFault(2, 400e-6)),
            p_drop=0.08, p_duplicate=0.04, seed=3,
        )
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(
            CORES, machine=machine, faults=plan, termination="consensus"
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 2
        assert rep.termination_hops == 3  # the ring of the 2 live procs

    def test_crash_under_mpi_only_mode(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(3, 200e-6),), seed=11)
        progs, faces = s.build_programs(resilient=True)
        DataDrivenRuntime(
            CORES, machine=machine, mode="mpi_only", faults=plan
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)

    def test_zero_fault_overhead_within_budget(self):
        """Recovery machinery armed but no faults: makespan within the
        checkpoint overhead budget of the plain run, counters all zero."""
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        base = DataDrivenRuntime(CORES, machine=machine).run(
            progs, pset.patch_proc
        )
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        rep = DataDrivenRuntime(
            CORES, machine=machine,
            faults=FaultPlan(seed=1), recovery=RecoveryConfig(),
        ).run(progs, pset.patch_proc)
        assert rep.makespan <= base.makespan * 1.10
        assert rep.drops == rep.duplicates == rep.retries == 0
        assert rep.crashes == rep.reexecutions == 0
        assert rep.checkpoints > 0
        assert rep.failover_time == 0.0
        assert rep.recovery_fraction() > 0

    def test_faulty_run_deterministic(self):
        """Same plan + seed => identical report, event for event."""
        reports = []
        for _ in range(2):
            machine, pset, s = _setup()
            plan = FaultPlan(
                crashes=(CrashFault(1, 150e-6),),
                p_drop=0.05, p_duplicate=0.05, seed=7,
            )
            progs, _ = s.build_programs(resilient=True)
            reports.append(
                DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                    progs, pset.patch_proc
                )
            )
        a, b = reports
        for f in ("makespan", "events", "executions", "drops", "duplicates",
                  "retries", "timeouts", "reexecutions", "checkpoints",
                  "crashes", "failover_time", "vertices_solved", "messages",
                  "message_bytes", "local_streams", "stream_items"):
            assert getattr(a, f) == getattr(b, f), f
        assert a.breakdown.by_category == b.breakdown.by_category

    def test_straggler_slows_run_without_recovery(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        base = DataDrivenRuntime(CORES, machine=machine).run(
            progs, pset.patch_proc
        )
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        plan = FaultPlan(stragglers=(StragglerWindow(0, 0.0, 300e-6, 4.0),))
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        assert rep.makespan > base.makespan
        # Stragglers need no recovery machinery: none was armed.
        assert rep.checkpoints == 0
        assert rep.breakdown.by_category["recovery"] == 0.0

    def test_crash_after_quiescence_is_ignored(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(0, 10.0),), seed=2)  # way late
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 0
        assert rep.reexecutions == 0

    def test_fault_summary_shape(self):
        machine, pset, s = _setup()
        plan = FaultPlan(crashes=(CrashFault(1, 150e-6),), p_drop=0.02, seed=4)
        progs, _ = s.build_programs(compute=False, resilient=True)
        rep = DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
            progs, pset.patch_proc
        )
        summary = rep.fault_summary()
        assert set(summary) == {
            "drops", "duplicates", "retries", "timeouts", "reexecutions",
            "checkpoints", "crashes", "failover_time", "partition_drops",
            "corruptions", "nacks", "cascade_crashes", "recovery_time",
        }
        assert summary["crashes"] == 1
        assert summary["recovery_time"] > 0

    # -- plan validation against the layout --------------------------------------

    def test_crash_requires_resilient_programs(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)  # not resilient
        plan = FaultPlan(crashes=(CrashFault(1, 1e-4),))
        with pytest.raises(ReproError, match="resilient"):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )

    def test_crash_proc_out_of_range(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        plan = FaultPlan(crashes=(CrashFault(99, 1e-4),))
        with pytest.raises(ReproError):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )

    def test_all_procs_crashing_rejected(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        plan = FaultPlan(
            crashes=tuple(CrashFault(p, 1e-4) for p in range(4))
        )
        with pytest.raises(ReproError, match="survivor"):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )

    def test_straggler_proc_out_of_range(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False)
        plan = FaultPlan(stragglers=(StragglerWindow(99, 0.0, 1.0, 2.0),))
        with pytest.raises(ReproError):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )


class TestMpiOnlyFaultParity:
    """Scheduler-policy parity: the ``mpi_only`` layout (master and the
    single worker fused on one core per rank) survives the same fault
    plans as ``hybrid`` with bitwise-identical flux."""

    MPI_CORES = 4  # one rank per core; 4 procs, matching _setup()

    def test_crash_and_drops_bitwise_identical_numerics(self):
        """Mirror of the hybrid headline test under mpi_only."""
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(
            crashes=(CrashFault(proc=1, time=150e-6),),
            p_drop=0.05, p_duplicate=0.05, seed=7,
        )
        progs, faces = s.build_programs(resilient=True)
        rep = DataDrivenRuntime(
            self.MPI_CORES, machine=machine, mode="mpi_only", faults=plan
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.crashes == 1
        assert rep.reexecutions > 0
        assert rep.failover_time > 0
        assert rep.checkpoints > 0
        assert rep.breakdown.by_category["recovery"] > 0

    def test_drops_and_duplicates_without_crash(self):
        ref = _reference_phi()
        machine, pset, s = _setup()
        plan = FaultPlan(p_drop=0.1, p_duplicate=0.05, seed=3)
        progs, faces = s.build_programs()  # resilient NOT required
        rep = DataDrivenRuntime(
            self.MPI_CORES, machine=machine, mode="mpi_only", faults=plan
        ).run(progs, pset.patch_proc)
        phi, _ = s.accumulate(faces)
        assert_array_equal(phi, ref)
        assert rep.drops > 0
        assert rep.retries > 0
        assert rep.reexecutions == 0

    def test_faulty_mpi_only_run_deterministic(self):
        """Same plan + seed => identical report under mpi_only."""
        reports = []
        for _ in range(2):
            machine, pset, s = _setup()
            plan = FaultPlan(
                crashes=(CrashFault(1, 150e-6),),
                p_drop=0.05, p_duplicate=0.05, seed=7,
            )
            progs, _ = s.build_programs(resilient=True)
            reports.append(
                DataDrivenRuntime(
                    self.MPI_CORES, machine=machine, mode="mpi_only",
                    faults=plan,
                ).run(progs, pset.patch_proc)
            )
        a, b = reports
        for f in ("makespan", "events", "executions", "drops", "duplicates",
                  "retries", "timeouts", "reexecutions", "checkpoints",
                  "crashes", "failover_time", "vertices_solved", "messages",
                  "message_bytes", "local_streams", "stream_items"):
            assert getattr(a, f) == getattr(b, f), f
        assert a.breakdown.by_category == b.breakdown.by_category
