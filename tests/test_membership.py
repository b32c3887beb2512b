"""Elastic-membership tests: incarnations, heartbeat detection, rejoin.

The contract under test (DESIGN.md §14): with membership armed there
is *no* detection oracle - crashes are discovered only through missed
heartbeats - and every path through the failure detector (true
detection, false suspicion of a slow-but-alive rank, restart + rejoin
via state transfer, a demotion that outlasts healthy probes)
preserves the strongest oracle the repo has: bitwise-identical flux
to the fault-free reference, sanitizer-clean, happens-before-race-free.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro._util import ReproError
from repro.analysis.hb import check_report
from repro.chaos import ChaosSpace, build_scenario, random_fault_plan, run_campaign
from repro.core.stream import ProgramId, Stream
from repro.runtime import (
    CrashFault,
    DataDrivenRuntime,
    FaultPlan,
    Machine,
    RecoveryConfig,
    Router,
    RunReport,
    SanitizerError,
    Simulator,
    StallError,
    StragglerWindow,
    Transport,
)
from repro.runtime.metrics import Breakdown
from repro.runtime.recovery import Checkpoint
from tests.test_chaos import _reference_phi, _run, _setup, deliver, online_checker

CORES = 16  # 4 procs x (1 master + 3 workers) on the small machine


def _mrun(plan, **kw):
    return _run(plan, recovery=RecoveryConfig(membership=True), **kw)


# -- config and plan validation --------------------------------------------------


class TestMembershipFlag:
    def test_defaults_off(self):
        assert RecoveryConfig().membership is False
        _, _, tr = _mtransport(membership=False)
        assert not tr.membership

    def test_all_on_enables(self):
        assert RecoveryConfig(membership=True).membership is True
        _, _, tr = _mtransport()
        assert tr.membership

    def test_watchdog_must_outlast_suspicion(self):
        with pytest.raises(ReproError, match="watchdog"):
            RecoveryConfig(watchdog_horizon=1e-3, membership=True)
        RecoveryConfig(watchdog_horizon=5.1e-3, membership=True)

    def test_membership_requires_resilient_programs(self):
        machine, pset, solver = _setup()
        progs, _ = solver.build_programs(resilient=False)
        rt = DataDrivenRuntime(
            CORES, machine=machine,
            recovery=RecoveryConfig(membership=True),
            faults=FaultPlan(seed=1),
        )
        with pytest.raises(ReproError, match="resilient"):
            rt.run(progs, pset.patch_proc)


class TestRestartPlanValidation:
    def test_restart_after_negative_rejected(self):
        with pytest.raises(ReproError):
            CrashFault(0, 1.0, restart_after=-1.0)

    def test_double_crash_needs_earlier_restart(self):
        with pytest.raises(ReproError, match="never restarts"):
            FaultPlan(crashes=(CrashFault(1, 1.0), CrashFault(1, 2.0)))

    def test_second_crash_must_follow_the_restart(self):
        with pytest.raises(ReproError, match="restart"):
            FaultPlan(crashes=(
                CrashFault(1, 1.0, restart_after=2.0),
                CrashFault(1, 2.5),  # lands inside the down window
            ))

    def test_flapping_plan_accepted(self):
        plan = FaultPlan(crashes=(
            CrashFault(1, 1.0, restart_after=0.5),
            CrashFault(1, 2.0, restart_after=0.5),
        ))
        assert plan.permanent_procs() == set()
        assert plan.restart_delay(1, 1.0) == 0.5
        assert plan.restart_delay(1, 1.5) == 0.0

    def test_total_loss_counts_only_permanent_crashes(self):
        # Every proc dies, but one comes back: still survivors.
        plan = FaultPlan(crashes=(
            CrashFault(0, 1.0, restart_after=0.5),
            CrashFault(1, 1.0),
        ))
        assert plan.permanent_procs() == {1}
        plan.validate(2)
        with pytest.raises(ReproError, match="every process"):
            FaultPlan(crashes=(
                CrashFault(0, 1.0), CrashFault(1, 1.0),
            )).validate(2)


# -- incarnation fencing (transport + sanitizer units) ---------------------------


def _mini_router(nprocs=2):
    class _Prog:
        def __init__(self, patch):
            self.id = ProgramId(patch, 0)

    progs = [_Prog(p) for p in range(nprocs)]
    return Router(progs, np.arange(nprocs), nprocs)


def _mtransport(membership=True):
    machine = Machine(cores_per_proc=4)
    layout = machine.layout(8, "hybrid")  # 2 procs
    sim = Simulator(frozenset({"msg_arrive"}))
    report = RunReport(makespan=0.0, breakdown=Breakdown(), total_cores=8)
    router = _mini_router()
    tr = Transport(
        sim, router, machine, layout, report,
        rcfg=RecoveryConfig(membership=membership),
    )
    return sim, router, tr


class TestIncarnationFencing:
    def test_send_stamps_current_incarnation(self):
        _, router, tr = _mtransport()
        s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
        tr.send(s, s.src, 0, 0.0, 0, 1)
        assert s.inc == (0, 0)
        router.fence(0)
        router.announce(0)
        s2 = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
        tr.send(s2, s2.src, 0, 1e-6, 0, 1)
        assert s2.inc == (0, 1)

    def test_stale_incarnation_rejected_and_counted(self):
        _, router, tr = _mtransport()
        s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
        tr.send(s, s.src, 0, 0.0, 0, 1)
        router.fence(0)  # sender's old life is fenced off
        assert not tr.receive(s, 1, 1e-6)
        assert tr.report.fenced_messages == 1
        # A fenced message is dropped silently: no ack, and the uid is
        # not marked seen, so the *new* incarnation can redeliver it.
        router.announce(0)
        s2 = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
        tr.send(s2, s2.src, 0, 2e-6, 0, 1)
        assert tr.receive(s2, 1, 3e-6)
        assert tr.report.fenced_messages == 1

    def test_incarnation_survives_checksum(self):
        # s.inc is metadata, not payload: stamping it must not change
        # the end-to-end checksum (goldens with membership off depend
        # on the byte layout staying put).
        from repro.runtime import stream_checksum

        s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
        base = stream_checksum(s)
        s.inc = (0, 3)
        assert stream_checksum(s) == base

    def test_fence_idempotent_per_life(self):
        router = _mini_router()
        assert router.fence(0) == 1
        assert router.fence(0) == 1  # second fence of one life: no-op
        assert router.announce(0) == 1  # adopts the pre-bump
        assert router.fence(0) == 2  # next life fences afresh

    def test_sanitizer_rejects_stale_incarnation_delivery(self):
        router = _mini_router()
        chk, _ = online_checker(router)
        router.fence(0)
        with pytest.raises(SanitizerError, match="stale incarnation"):
            deliver(chk, 1, inc=(0, 0))  # sender 0 now lives as inc 1

    def test_sanitizer_rejects_delivery_on_fenced_proc(self):
        router = _mini_router()
        chk, _ = online_checker(router)
        router.fence(1)
        with pytest.raises(SanitizerError, match="fenced proc"):
            deliver(chk, 1, inc=(0, router.inc[0]))


# -- rebalance unit --------------------------------------------------------------


class TestRebalance:
    def test_moves_bounded_and_deterministic(self):
        router = _mini_router(4)
        # Pile everything onto proc 0: [p0: 4 patches, others: 0].
        for p in range(1, 4):
            for pid in list(router.owned[p]):
                router.owned[p].remove(pid)
                router.owned[0].append(pid)
                router.proc_of[pid] = 0
                router.proc_idx[router.index_of[pid]] = 0
                router.patch_owner[pid.patch] = 0
        moved, srcs = router.rebalance_to(3, budget=1)
        assert len({pid.patch for pid in moved}) == 1
        assert all(srcs[pid] == 0 for pid in moved)
        # Ceil-mean target (4 patches / 4 procs = 1) reached: a second
        # rebalance, whatever its budget, is a no-op.
        assert len(router.owned[3]) == 1
        assert router.rebalance_to(3, budget=8) == ([], {})

    def test_refuses_dead_or_fenced_target(self):
        router = _mini_router(4)
        router.mark_dead(2)
        assert router.rebalance_to(2, budget=4) == ([], {})
        router.fence(3)
        assert router.rebalance_to(3, budget=4) == ([], {})

    def test_zero_budget_is_noop(self):
        router = _mini_router(4)
        assert router.rebalance_to(0, budget=0) == ([], {})


# -- end-to-end: detection without the oracle ------------------------------------


class TestHeartbeatDetection:
    def test_crash_detected_by_missed_beats_bitwise_exact(self):
        ref = _reference_phi()
        plan = FaultPlan(crashes=(CrashFault(1, 150e-6),), seed=7)
        rep, phi = _mrun(plan, trace=True)
        assert_array_equal(phi, ref)
        m = rep.membership_summary()
        assert m["heartbeats"] > 0
        assert m["suspicions"] >= 1
        assert m["false_suspicions"] == 0
        assert rep.crashes == 1
        assert rep.failover_time > 0
        assert check_report(rep) == []

    def test_detection_is_slower_than_the_oracle(self):
        # The whole point of removing the oracle: detection now costs
        # at least one heartbeat interval + the suspicion timeout,
        # where the oracle path paid only detection_delay.
        plan = FaultPlan(crashes=(CrashFault(1, 150e-6),), seed=7)
        rep_oracle, _ = _run(plan, recovery=RecoveryConfig())
        rep_hb, _ = _mrun(plan)
        assert rep_hb.failover_time > rep_oracle.failover_time

    def test_heartbeats_are_makespan_invisible(self):
        # Membership armed on a fault-free plan: probes tick, nothing
        # else changes - same makespan, same events, zero suspicions.
        base, phi_base = _run(FaultPlan(seed=3), recovery=RecoveryConfig())
        rep, phi = _mrun(FaultPlan(seed=3))
        assert rep.makespan == base.makespan
        assert rep.events == base.events
        m = rep.membership_summary()
        assert m["heartbeats"] > 0
        assert m["suspicions"] == m["fenced_messages"] == 0
        assert_array_equal(phi, phi_base)

    def test_false_suspicion_of_straggler_is_safe(self):
        # A rank slowed 60x answers probes far past the suspicion
        # timeout: it gets fenced and drained (false positive), then
        # heals and rejoins once its replies come back under the bound.
        ref = _reference_phi()
        plan = FaultPlan(
            stragglers=(StragglerWindow(2, 50e-6, 450e-6, 60.0),), seed=5
        )
        rep, phi = _mrun(plan, trace=True)
        assert_array_equal(phi, ref)
        m = rep.membership_summary()
        assert m["suspicions"] >= 1
        assert m["false_suspicions"] >= 1
        assert m["rejoins"] >= 1
        assert rep.crashes == 0
        assert check_report(rep) == []


class TestRestartRejoin:
    def test_restart_rejoins_and_takes_work_back(self):
        ref = _reference_phi()
        plan = FaultPlan(
            crashes=(CrashFault(1, 150e-6, restart_after=400e-6),), seed=7
        )
        rep, phi = _mrun(plan, trace=True)
        assert_array_equal(phi, ref)
        m = rep.membership_summary()
        assert m["restarts"] == 1
        assert m["rejoins"] == 1
        assert m["rebalanced_patches"] >= 1
        assert check_report(rep) == []
        # The rejoined incarnation really executes: commits on rank 1
        # strictly after the restart announcement.
        t_restart = [e.time for e in rep.hb_events if e.kind == "hb_restart"]
        assert len(t_restart) == 1
        post = [
            e for e in rep.hb_events
            if e.kind == "hb_commit" and e.detail[1] == 1
            and e.time > t_restart[0]
        ]
        assert post, "restarted rank never committed after rejoining"

    def test_rejoin_without_membership_restart_is_inert(self):
        # restart_after on the legacy (oracle) path: the proc restarts
        # into an empty role - no rejoin machinery exists - and the run
        # must still be exact.  The restart event is simply absorbed.
        ref = _reference_phi()
        plan = FaultPlan(
            crashes=(CrashFault(1, 150e-6, restart_after=400e-6),), seed=7
        )
        rep, phi = _run(plan, recovery=RecoveryConfig())
        assert_array_equal(phi, ref)
        assert rep.restarts == 0  # counted only when membership adopts it

    def test_flapping_rank_double_crash(self):
        ref = _reference_phi()
        plan = FaultPlan(crashes=(
            CrashFault(1, 120e-6, restart_after=350e-6),
            CrashFault(1, 700e-6),
        ), seed=7)
        rep, phi = _mrun(plan, trace=True)
        assert_array_equal(phi, ref)
        m = rep.membership_summary()
        assert rep.crashes >= 1
        assert m["restarts"] <= 1
        assert check_report(rep) == []

    def test_demotion_lasts_the_run_under_membership(self):
        # Probe replies measure reachability, not speed: a 3x-slow rank
        # answers every probe in time.  A demotion must therefore last
        # the run with membership armed too - one demotion, the same
        # makespan bit for bit as demotion alone, exact flux.
        plan = FaultPlan(stragglers=(StragglerWindow(1, 0.0, 50e-3, 3.0),))
        for kind, mode in (("structured", "hybrid"),
                           ("unstructured", "mpi_only")):
            machine, cores, pset, solver = build_scenario(kind, mode)
            ref = np.ascontiguousarray(solver.sweep_once(mode="fast")[0])
            reps = {}
            for membership in (False, True):
                progs, record = solver.build_programs(resilient=True)
                reps[membership] = DataDrivenRuntime(
                    cores, machine=machine, mode=mode, faults=plan,
                    recovery=RecoveryConfig(membership=membership,
                                            demotion=True),
                    trace=True,
                ).run(progs, pset.patch_proc)
                phi, _ = solver.accumulate(record)
                assert phi.tobytes() == ref.tobytes(), (kind, membership)
            rep = reps[True]
            assert rep.demotions == 1, kind
            assert rep.makespan.hex() == reps[False].makespan.hex(), kind
            assert check_report(rep) == []


# -- the give-up age across a demotion migration -------------------------------


class TestWatchdogRearm:
    """A demotion migrates through the failover path, whose re-arm of
    the moved programs' checkpointed sends restarts their give-up age."""

    H = RecoveryConfig().watchdog_horizon

    def _sent(self):
        _, _, tr = _mtransport(membership=False)
        pid = ProgramId(0, 0)
        s = Stream(src=pid, dst=ProgramId(1, 0), nbytes=64)
        tr.send(s, pid, 0, 0.0, 0, 1)
        return tr, pid, s

    def test_failover_rearm_restarts_the_give_up_age(self):
        tr, pid, s = self._sent()
        ck = {pid: Checkpoint(state=None, inbox=[], pending={s.uid: s})}
        tr.rearm_after_failover({pid}, ck, now=0.8 * self.H)
        ps = tr.pending[s.uid]
        tr.on_timer((s.uid, ps.attempt), 1.5 * self.H)  # must not raise
        assert tr.report.retries == 1

    def test_without_rearm_the_same_timer_gives_up(self):
        tr, pid, s = self._sent()
        ps = tr.pending[s.uid]
        with pytest.raises(StallError):
            tr.on_timer((s.uid, ps.attempt), 1.5 * self.H)

    def test_run_with_demotion_and_tight_watchdog_completes(self):
        # Integration regression: a severe straggler under a tight
        # give-up age - a slow-but-alive rank still acks, so the run
        # completes through the demotion instead of stalling.
        ref = _reference_phi()
        plan = FaultPlan(
            stragglers=(StragglerWindow(0, 0.0, 1.2e-3, 12.0),), seed=9
        )
        rep, phi = _run(plan, recovery=RecoveryConfig(
            watchdog_horizon=1.5e-3, demotion=True,
        ))
        assert_array_equal(phi, ref)


# -- the flapping chaos campaign -------------------------------------------------


class TestFlappingCampaign:
    def test_legacy_plans_bitwise_stable_with_flapping_off(self):
        for seed in range(8):
            assert random_fault_plan(seed, 4) == random_fault_plan(
                seed, 4, ChaosSpace(flapping=False)
            )

    def test_flapping_draws_do_not_shift_legacy_draws(self):
        for seed in range(8):
            base = random_fault_plan(seed, 4)
            flap = random_fault_plan(seed, 4, ChaosSpace(flapping=True))
            assert flap.seed == base.seed
            assert flap.stragglers == base.stragglers
            assert flap.partitions == base.partitions
            assert {(c.proc, c.time) for c in base.crashes} <= {
                (c.proc, c.time) for c in flap.crashes
            }
            flap.validate(4)

    def test_flapping_campaign_20_seeds_exact_and_race_free(self):
        res = run_campaign(
            seeds=range(20), kinds=("structured",), modes=("hybrid",),
            space=ChaosSpace(flapping=True), membership=True, hb=True,
        )
        bad = res.failures()
        assert not bad, "; ".join(
            f"seed {c.seed}: {c.error or 'inexact'}" for c in bad
        )
        assert res.total == 20
        # The campaign must actually exercise the new machinery.
        assert sum(c.membership.get("restarts", 0) for c in res.cases) > 0
        assert sum(c.membership.get("rejoins", 0) for c in res.cases) > 0
