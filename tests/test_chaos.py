"""Chaos-engine tests: partitions, corruption, cascades, the give-up
age of an un-acked send, the online run checker (sanitizer), and the seeded campaign driver.

The oracle everywhere is the strongest one available: a recoverable
faulty run must produce *bitwise-identical* flux to the fault-free
reference, and an unrecoverable one must terminate with a structured
:class:`StallReport` naming the lost dependency - never hang, never
silently drop work.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_array_equal

from repro._util import ReproError
from repro.chaos import (
    ChaosSpace,
    random_fault_plan,
    run_campaign,
    run_case,
)
from repro.core.stream import ProgramId, Stream
from repro.framework import PatchSet
from repro.mesh import cube_structured
from repro.persist.killer import report_fingerprint
from repro.runtime import (
    CostModel,
    CrashFault,
    DataDrivenRuntime,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    Machine,
    RecoveryConfig,
    SNAPSHOT_VERSION,
    Resource,
    Router,
    RunReport,
    SanitizerError,
    Simulator,
    StallError,
    StragglerWindow,
    Transport,
    stream_checksum,
)
from repro.runtime.checker import HbChecker
from repro.runtime.faults import ACK_TIMEOUT, MAX_RTO
from repro.runtime.metrics import Breakdown
from repro.runtime.recovery import Checkpoint, RecoveryManager
from repro.runtime.scheduler import RunState
from repro.sweep.solver import OrderRecord
from repro.sweep.sweep_program import SweepPatchProgram
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


def _run(plan, sanitize=True, **kw):
    machine, pset, s = _setup()
    progs, faces = s.build_programs(resilient=True)
    rep = DataDrivenRuntime(
        CORES, machine=machine, faults=plan, sanitize=sanitize, **kw
    ).run(progs, pset.patch_proc)
    phi, _ = s.accumulate(faces)
    return rep, phi


# -- fault-model validation ------------------------------------------------------


class TestFaultModelValidation:
    def test_partition_rejects_self_link(self):
        with pytest.raises(ReproError, match="distinct"):
            LinkPartition(2, 2, 0.0, 1.0)

    def test_partition_rejects_bad_window(self):
        with pytest.raises(ReproError, match="start"):
            LinkPartition(0, 1, 2.0, 1.0)

    def test_partition_validated_against_layout(self):
        machine, pset, s = _setup()
        progs, _ = s.build_programs(compute=False, resilient=True)
        plan = FaultPlan(partitions=(LinkPartition(0, 9, 0.0, 1.0),))
        with pytest.raises(ReproError, match="only 4 processes"):
            DataDrivenRuntime(CORES, machine=machine, faults=plan).run(
                progs, pset.patch_proc
            )

    def test_cascade_requires_window(self):
        with pytest.raises(ReproError, match="cascade_window"):
            CrashFault(0, 1e-4, cascade=0.5)

    def test_duplicate_crash_of_same_proc_rejected(self):
        with pytest.raises(ReproError, match="twice"):
            FaultPlan(crashes=(CrashFault(1, 1e-4), CrashFault(1, 2e-4)))

    def test_corrupt_rate_bounds(self):
        with pytest.raises(ReproError, match="p_corrupt"):
            FaultPlan(p_corrupt=1.0)
        with pytest.raises(ReproError, match="below 1"):
            FaultPlan(p_drop=0.5, p_duplicate=0.3, p_corrupt=0.3)

    def test_partitions_and_corruption_need_recovery(self):
        assert FaultPlan(
            partitions=(LinkPartition(0, 1, 0.0, 1.0),)
        ).needs_recovery()
        assert FaultPlan(p_corrupt=0.01).needs_recovery()
        assert not FaultPlan(
            stragglers=(StragglerWindow(0, 0.0, 1.0, 2.0),)
        ).needs_recovery()

    def test_max_casualties_counts_cascade_caps(self):
        plan = FaultPlan(crashes=(
            CrashFault(0, 1e-4, cascade=0.5, cascade_window=1e-4,
                       cascade_max=2),
            CrashFault(1, 2e-4),
        ))
        assert plan.max_casualties() == 4


# -- link partitions -------------------------------------------------------------


class TestLinkPartitions:
    def test_healing_partition_recovers_bitwise(self):
        ref = _reference_phi()
        plan = FaultPlan(
            partitions=(LinkPartition(0, 1, 50e-6, 400e-6),), seed=3
        )
        rep, phi = _run(plan)
        assert_array_equal(phi, ref)
        assert rep.partition_drops > 0  # traffic was black-holed...
        assert rep.retries > 0  # ...and recovered by retransmission

    def test_cut_is_directed(self):
        inj = FaultInjector(
            FaultPlan(partitions=(LinkPartition(0, 1, 0.0, 1.0),))
        )
        assert inj.link_cut(0, 1, 0.5)
        assert not inj.link_cut(1, 0, 0.5)  # reverse link unaffected
        assert not inj.link_cut(0, 1, 1.5)  # healed

    def test_cut_window_lookup(self):
        cut = LinkPartition(0, 1, 0.0, 1.0)
        inj = FaultInjector(FaultPlan(partitions=(cut,)))
        assert inj.cut_window(0, 1, 0.5) == cut
        assert inj.cut_window(0, 1, 1.5) is None

    def test_infinite_partition_raises_stall_report(self):
        plan = FaultPlan(
            partitions=(LinkPartition(0, 1, 50e-6, math.inf),), seed=3
        )
        with pytest.raises(StallError) as ei:
            _run(plan)
        report = ei.value.report
        assert report.lost, "the lost dependency must be named"
        edge = report.lost[0]
        assert edge.src_proc == 0 and edge.dst_proc == 1
        assert "never heals" in edge.reason
        # The oldest send gave up at its first timer past the horizon.
        assert report.horizon < report.now - report.since <= (
            report.horizon + MAX_RTO
        )
        assert "partitioned" in str(ei.value)


# -- payload corruption ----------------------------------------------------------


class TestCorruption:
    def test_corruption_detected_and_recovered_bitwise(self):
        ref = _reference_phi()
        rep, phi = _run(FaultPlan(p_corrupt=0.1, seed=5))
        assert_array_equal(phi, ref)
        assert rep.corruptions > 0
        assert rep.nacks > 0  # every corruption was caught by checksum

    def test_stream_checksum_catches_bit_flip(self):
        pid = ProgramId(0, 0)
        payload = np.arange(6, dtype=np.int64)
        s = Stream(src=pid, dst=ProgramId(1, 0), payload=payload,
                   items=6, nbytes=48, seq=0)
        s.checksum = stream_checksum(s)
        bad = payload.copy()
        bad[3] ^= 1 << 7
        flipped = Stream(src=pid, dst=ProgramId(1, 0), payload=bad,
                         items=6, nbytes=48, seq=0, checksum=s.checksum)
        assert stream_checksum(flipped) != flipped.checksum
        assert stream_checksum(s) == s.checksum

    @pytest.mark.parametrize("items", [(3, 0, 7, 2), ((3, 11), (0, 12), (7, 13))])
    def test_int_tuple_checksums_as_its_int64_image(self, items):
        """A sweep stream's tuple payload - vertex ids, or (vertex,
        edge_id) pairs - is checksummed as the equal int64 ndarray
        (shape ``(k,)`` or ``(k, 2)``), and one flipped item shows."""
        arr = np.asarray(items, dtype=np.int64)

        def crc(payload):
            return stream_checksum(Stream(
                src=ProgramId(0, 0), dst=ProgramId(1, 0), payload=payload,
                items=len(items), nbytes=8 * len(items), seq=0))

        assert crc(items) == crc(arr)
        flipped = arr.copy()
        flipped.flat[1] ^= 1 << 40
        bad = tuple(map(tuple, flipped.tolist())) if arr.ndim == 2 \
            else tuple(flipped.tolist())
        assert crc(bad) == crc(flipped) != crc(items)

    @pytest.mark.parametrize("items", [(3, 0, 7, 2), ((3, 11), (0, 12), (7, 13))])
    def test_corrupt_clone_of_a_tuple_payload_is_nacked(self, items):
        """The in-flight flip lands in the tuple's int64 image: the
        clone is a tuple of the same shape, and its receiver NACKs it."""
        class _Prog:
            def __init__(self, patch):
                self.id = ProgramId(patch, 0)

        machine = Machine(cores_per_proc=4)
        sim = Simulator(frozenset({"msg_arrive"}))
        report = RunReport(makespan=0.0, breakdown=Breakdown(), total_cores=8)
        router = Router([_Prog(0), _Prog(1)], np.arange(2), 2)
        tr = Transport(
            sim, router, machine, machine.layout(8, "hybrid"), report,
            injector=FaultInjector(FaultPlan(p_corrupt=0.99, seed=3)),
            rcfg=RecoveryConfig(),
        )
        s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), payload=items,
                   items=len(items), nbytes=8 * len(items))
        tr.send(s, s.src, 0, 0.0, 0, 1)
        assert report.corruptions == 1
        t, kind, (proc, clone, _wid) = sim.pop()
        assert kind == "msg_arrive" and proc == 1
        assert type(clone.payload) is tuple and clone.payload != items
        assert np.shape(clone.payload) == np.shape(items)
        assert s.payload is items  # the tracked send stays pristine
        assert not tr.receive(clone, proc, t)
        assert report.nacks == 1

    def test_checksum_covers_header(self):
        pid = ProgramId(0, 0)
        a = Stream(src=pid, dst=ProgramId(1, 0), seq=0, epoch=0)
        b = Stream(src=pid, dst=ProgramId(1, 0), seq=0, epoch=1)
        assert stream_checksum(a) != stream_checksum(b)


# -- crash cascades --------------------------------------------------------------


class TestCascades:
    def test_cascade_recovers_bitwise(self):
        ref = _reference_phi()
        plan = FaultPlan(
            crashes=(CrashFault(1, 150e-6, cascade=0.9,
                                cascade_window=100e-6, cascade_max=1),),
            seed=9,
        )
        rep, phi = _run(plan)
        assert_array_equal(phi, ref)
        assert rep.crashes == 2  # the victim took a neighbour down
        assert rep.cascade_crashes == 1

    def test_cascade_victims_respect_cap_and_budget(self):
        fault = CrashFault(0, 1e-4, cascade=1.0, cascade_window=1e-4,
                           cascade_max=2)
        inj = FaultInjector(FaultPlan(crashes=(fault,), seed=1))
        victims = inj.cascade_victims(fault, [0, 1, 2, 3], 1e-4)
        assert len(victims) == 2  # capped despite p=1 over 3 survivors
        for q, t in victims:
            assert q != 0
            assert 1e-4 < t <= 2e-4

    def test_non_cascading_crash_draws_nothing(self):
        fault = CrashFault(0, 1e-4)
        inj = FaultInjector(FaultPlan(crashes=(fault,), seed=1))
        before = inj._rng.bit_generator.state["state"]["state"]
        assert inj.cascade_victims(fault, [0, 1, 2], 1e-4) == []
        after = inj._rng.bit_generator.state["state"]["state"]
        assert before == after  # rng untouched: old plans replay bit-exactly


# -- the give-up age (transport-level) -------------------------------------------


class TestWatchdog:
    """A send un-acked past the horizon gives up; nothing else does."""

    H = 1e-3

    def _sent(self, **plan):
        tr = _transport(
            RecoveryConfig(watchdog_horizon=self.H),
            FaultInjector(FaultPlan(**plan)) if plan else None,
        )
        s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
        tr.send(s, s.src, 0, 0.0, 0, 1)
        return tr, s, tr.pending[s.uid]

    def test_gives_up_only_past_the_horizon(self):
        tr, s, ps = self._sent()
        tr.on_timer((s.uid, ps.attempt), self.H)  # age == horizon: retry
        assert tr.report.retries == 1
        with pytest.raises(StallError):
            tr.on_timer((s.uid, ps.attempt), self.H + 1e-9)

    def test_acked_or_superseded_timer_never_gives_up(self):
        tr, s, ps = self._sent()
        tr.on_timer((s.uid, ps.attempt - 1), 10 * self.H)  # superseded
        tr.on_ack(s.uid, 2e-6)
        tr.on_timer((s.uid, ps.attempt), 10 * self.H)  # lazily cancelled
        assert tr.report.timeouts == 0 and not tr.pending

    def test_give_up_raises_the_wait_for_snapshot(self):
        tr, s, ps = self._sent(
            partitions=(LinkPartition(0, 1, 0.0, math.inf),)
        )
        now = 2 * self.H
        with pytest.raises(StallError) as ei:
            tr.on_timer((s.uid, ps.attempt), now)
        rep = ei.value.report
        assert rep == tr.stall_snapshot(now)
        assert (rep.now, rep.since, rep.horizon) == (now, 0.0, self.H)
        assert rep.lost == rep.waiting and len(rep.lost) == 1
        assert "never heals" in rep.lost[0].reason
        assert tr.report.partition_drops == 1  # the first copy only

    def test_dead_sender_never_gives_up_but_a_dead_receiver_does(self):
        # A dead sender's sends wait for failover to re-arm them; a
        # dead receiver's are held, and count toward the give-up age.
        tr, s, ps = self._sent()
        tr.router.dead.add(0)
        tr.on_timer((s.uid, ps.attempt), 10 * self.H)
        assert s.uid in tr.pending
        tr.router.dead.clear()
        tr.router.dead.add(1)
        tr.on_timer((s.uid, ps.attempt), self.H / 2)  # held, not retried
        assert tr.report.retries == 0
        with pytest.raises(StallError, match="receiver proc 1 is dead"):
            tr.on_timer((s.uid, ps.attempt), 2 * self.H)

    def test_stall_report_json_round_trip(self):
        """StallReport/WaitEdge survive a full JSON round-trip - the
        service layer attaches the dict form to job failures, so every
        field (including an infinite partition-heal time in a reason)
        must come back identical."""
        import json
        import math

        from repro.runtime import StallReport, WaitEdge

        lost = WaitEdge(
            waiter="P3.0", holder="P0.1", src_proc=0, dst_proc=1,
            retries=7,
            reason=f"link 0->1 partitioned (heals at {math.inf})",
        )
        waiting = WaitEdge(
            waiter="P1.0", holder="P3.0", src_proc=1, dst_proc=0,
            retries=2, reason="upstream starved",
        )
        rep = StallReport(
            now=3.5e-3, since=1.5e-3, horizon=2e-3,
            pending_events=11, waiting=(waiting, lost), lost=(lost,),
            cycle=("P3.0", "P1.0", "P3.0"),
        )
        wire = json.dumps(rep.to_dict())
        back = StallReport.from_dict(json.loads(wire))
        assert back == rep
        assert back.lost[0] == lost and back.waiting == (waiting, lost)
        # The dict form stays render-compatible with the text form.
        assert StallReport.from_dict(rep.to_dict()).describe() == (
            rep.describe()
        )


# -- online run checker (the sanitizer) -----------------------------------------


def _mini_router(nprocs=2):
    class _Prog:
        def __init__(self, patch):
            self.id = ProgramId(patch, 0)

    progs = [_Prog(0), _Prog(1)]
    return Router(progs, np.arange(nprocs), nprocs)


def _transport(rcfg, injector=None):
    """A bare 2-proc transport (8 cores of 4) on a fresh simulator."""
    machine = Machine(cores_per_proc=4)
    layout = machine.layout(8, "hybrid")
    sim = Simulator(frozenset({"msg_arrive"}))
    report = RunReport(makespan=0.0, breakdown=Breakdown(), total_cores=8)
    return Transport(sim, _mini_router(), machine, layout, report,
                     injector=injector, rcfg=rcfg)


def online_checker(router):
    """The sanitizer over a mini run: an HbChecker fed ``hb_*`` records
    by hand, checking them against ``router`` and a RunState."""
    st = RunState()
    for pid in router.pids:
        st.add(SimpleNamespace(id=pid, resilient_input=False))
    return HbChecker(run=(router, st)), st


def deliver(chk, proc, wid=1, uid="((0,0), 0)", dsti=1, inc=(None, None)):
    """Feed one send/arrival pair: ``uid`` reaches program ``dsti`` on
    ``proc``, stamped with sender incarnation ``inc``."""
    chk.feed(wid * 1e-6, "hb_send", (wid, 0, proc, uid))
    chk.feed(wid * 1e-6 + 5e-7, "hb_recv", (wid, proc, True, uid, dsti, *inc))


class TestSanitizer:
    def test_duplicate_delivery_caught(self):
        chk, _ = online_checker(_mini_router())
        deliver(chk, 1, wid=1)
        with pytest.raises(SanitizerError, match="exactly-once"):
            deliver(chk, 1, wid=2)  # a second copy of the same uid

    def test_delivery_to_dead_proc_caught(self):
        router = _mini_router()
        chk, _ = online_checker(router)
        router.mark_dead(1)
        with pytest.raises(SanitizerError, match="dead"):
            deliver(chk, 1)

    def test_delivery_to_wrong_owner_caught(self):
        chk, _ = online_checker(_mini_router())
        with pytest.raises(SanitizerError, match="owner"):
            deliver(chk, 0)  # program (1,0) is owned by proc 1

    def test_workload_regression_caught(self):
        chk, _ = online_checker(_mini_router())
        chk.feed(1e-6, "hb_commit", ("(0,0)", 0, 0, 1, 10))
        chk.feed(2e-6, "hb_commit", ("(0,0)", 0, 0, 2, 4))  # monotone: fine
        with pytest.raises(SanitizerError, match="regressed"):
            chk.feed(3e-6, "hb_commit", ("(0,0)", 0, 0, 3, 7))

    def test_workload_reset_allowed_on_new_epoch(self):
        chk, _ = online_checker(_mini_router())
        chk.feed(1e-6, "hb_commit", ("(0,0)", 0, 0, 1, 4))
        chk.feed(2e-6, "hb_crash", (0,))
        chk.feed(3e-6, "hb_migrate", ("(0,0)", 0, 1, 1))
        chk.feed(4e-6, "hb_commit", ("(0,0)", 1, 1, 2, 9))  # re-execution
        chk.feed(5e-6, "hb_commit", ("(0,0)", 0, 0, 3, 5))  # stale: ignored
        assert chk.finish() == []

    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.tuples(
        hst.floats(0.0, 1e-3), hst.floats(0.0, 1e-3),
    ), max_size=40))
    def test_backwards_timeline_caught(self, bookings):
        """No check is needed: over finite non-negative durations a core
        timeline is well-formed and its ends never go backwards."""
        core = Resource(("w", 0, 0))
        now = last = 0.0
        for gap, dur in bookings:
            now += gap
            start, end = core.book(now, dur)
            assert 0.0 <= now <= start <= end < math.inf
            assert end >= last
            last = end

    def test_malformed_interval_caught(self):
        """Every booked duration is a cost coefficient, scaled by
        straggler factors: each source refuses a negative or
        non-finite value at construction."""
        for bad in (-1e-6, math.inf, math.nan):
            with pytest.raises(ReproError, match="finite and >= 0"):
                CostModel(t_route=bad)
        for bad in (0.5, math.inf, math.nan):
            with pytest.raises(ReproError, match="factor must be >= 1"):
                StragglerWindow(0, 0.0, 1.0, bad)

    def test_failover_inbox_duplicates_caught(self):
        chk, st = online_checker(_mini_router())
        s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), seq=3)
        st.inbox[1] = [s, s]
        chk.feed(1e-6, "hb_crash", (1,))
        with pytest.raises(SanitizerError, match="duplicate"):
            chk.feed(2e-6, "hb_migrate", ("(1,0)", 1, 0, 1))

    def test_sanitized_faulty_run_passes(self):
        ref = _reference_phi()
        plan = FaultPlan(
            crashes=(CrashFault(1, 150e-6),),
            partitions=(LinkPartition(0, 2, 80e-6, 300e-6),),
            p_drop=0.05, p_duplicate=0.05, p_corrupt=0.03, seed=7,
        )
        rep, phi = _run(plan, sanitize=True)
        assert_array_equal(phi, ref)
        assert rep.sanitizer_checks > 0  # checks really ran


@pytest.mark.parametrize("field", [
    f for f in CostModel.__dataclass_fields__ if f.startswith("t_")
])
@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_cost_model_refuses_negative_or_nonfinite(field, bad):
    with pytest.raises(ReproError, match=field):
        CostModel(**{field: bad})


@pytest.mark.parametrize("groups", [0, -2, 1.5])
def test_cost_model_refuses_bad_groups(groups):
    with pytest.raises(ReproError, match="groups"):
        CostModel(groups=groups)


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_straggler_factor_must_be_finite(factor):
    with pytest.raises(ReproError, match="factor must be >= 1"):
        StragglerWindow(0, 0.0, 1.0, factor)


class _Forgetful(set):
    """A transport ``seen`` set that never remembers (dedup skipped)."""

    def __contains__(self, uid):
        return False


def _skip_dedup(monkeypatch):
    init = Transport.__init__

    def forgetful(self, *a, **kw):
        init(self, *a, **kw)
        self.seen = _Forgetful()

    monkeypatch.setattr(Transport, "__init__", forgetful)
    return FaultPlan(p_duplicate=0.1, seed=7)


def _double_dlog(monkeypatch):
    migrate = RecoveryManager._migrate

    def doubled(self, moved, src, now):
        for pid in moved:
            self.dlog[pid] = self.dlog[pid] * 2
        return migrate(self, moved, src, now)

    monkeypatch.setattr(RecoveryManager, "_migrate", doubled)
    return FaultPlan(crashes=(CrashFault(1, 150e-6),))


def _inflate_commits(monkeypatch):
    remaining = SweepPatchProgram.remaining_workload

    def inflated(self):
        # Every second commit of a program reports 1000 extra vertices
        # while work remains; the run still ends at zero.
        self._commits = getattr(self, "_commits", 0) + 1
        rem = remaining(self)
        return rem + 1000 if rem and self._commits % 2 == 0 else rem

    monkeypatch.setattr(SweepPatchProgram, "remaining_workload", inflated)
    return None  # fault-free: no checkpoint or restore reads the count


@pytest.mark.parametrize("breaker,word", [
    (_skip_dedup, "exactly-once"),
    (_double_dlog, "duplicate"),
    (_inflate_commits, "regressed"),
], ids=["transport-dedup", "failover-dlog", "commit-regression"])
def test_record_stream_carries_every_checked_fact(monkeypatch, breaker, word):
    """A layer that breaks an invariant is caught from the ``hb_*``
    records alone; the same broken run completes unsanitized."""
    plan = breaker(monkeypatch)
    with pytest.raises(SanitizerError, match=word):
        _run(plan, sanitize=True)
    _run(plan, sanitize=False)


def test_sanitize_leaves_the_run_bitwise_unchanged():
    plan = FaultPlan(
        crashes=(CrashFault(1, 150e-6),),
        partitions=(LinkPartition(0, 2, 80e-6, 300e-6),),
        p_drop=0.05, p_duplicate=0.05, p_corrupt=0.03, seed=7,
    )
    prints = {report_fingerprint(*_run(plan, sanitize=on)) for on in (False, True)}
    assert len(prints) == 1


def test_restored_run_cannot_be_sanitized():
    """The checker never saw the snapshotted prefix: a resumed run's
    arrivals would have no recorded send."""
    rt = DataDrivenRuntime(CORES, machine=Machine(cores_per_proc=4), sanitize=True)
    with pytest.raises(ReproError, match="cannot be sanitized"):
        rt.restore([], np.zeros(0, dtype=int), {"version": SNAPSHOT_VERSION})


# -- transport: rearm after failover ---------------------------------------------


class TestRearmAfterFailover:
    def _transport(self):
        tr = _transport(RecoveryConfig())
        return tr.sim, tr

    def test_checkpointed_sends_reset_and_retransmit(self):
        sim, tr = self._transport()
        pid = ProgramId(0, 0)
        s = Stream(src=pid, dst=ProgramId(1, 0), nbytes=64)
        tr.send(s, pid, 0, 0.0, 0, 1)
        ps = tr.pending[s.uid]
        ps.retries, ps.timeout = 3, 1.0  # pretend backoff had escalated
        attempt = ps.attempt
        events_before = len(sim)
        ck = {pid: Checkpoint(state=None, inbox=[], pending={s.uid: s})}
        tr.rearm_after_failover({pid}, ck, now=1e-3)
        assert s.uid in tr.pending
        assert ps.retries == 0  # retry count restarts with the new owner
        assert ps.armed_at == 1e-3  # and so does the give-up age
        assert ps.timeout == ACK_TIMEOUT  # backoff reset
        assert ps.attempt == attempt + 1  # stale timers lazily cancelled
        assert len(sim) == events_before + 2  # fresh msg_arrive + timer

    def test_post_snapshot_sends_are_dropped(self):
        sim, tr = self._transport()
        pid = ProgramId(0, 0)
        s1 = Stream(src=pid, dst=ProgramId(1, 0), nbytes=64)
        s2 = Stream(src=pid, dst=ProgramId(1, 0), nbytes=64)
        tr.send(s1, pid, 0, 0.0, 0, 1)
        tr.send(s2, pid, 0, 0.0, 0, 1)
        # Snapshot knows only s1; s2 was sent after the checkpoint.
        ck = {pid: Checkpoint(state=None, inbox=[], pending={s1.uid: s1})}
        tr.rearm_after_failover({pid}, ck, now=1e-3)
        assert s1.uid in tr.pending
        assert s2.uid not in tr.pending  # replay will regenerate it

    def test_never_checkpointed_program_drops_all_sends(self):
        sim, tr = self._transport()
        pid = ProgramId(0, 0)
        s = Stream(src=pid, dst=ProgramId(1, 0), nbytes=64)
        tr.send(s, pid, 0, 0.0, 0, 1)
        tr.rearm_after_failover({pid}, {pid: None}, now=1e-3)
        assert not tr.pending

    def test_unmoved_programs_untouched(self):
        sim, tr = self._transport()
        pid, other = ProgramId(0, 0), ProgramId(1, 0)
        s = Stream(src=other, dst=pid, nbytes=64)
        tr.send(s, other, 0, 0.0, 1, 0)
        ps = tr.pending[s.uid]
        ps.retries = 2
        tr.rearm_after_failover({pid}, {pid: None}, now=1e-3)
        assert tr.pending[s.uid].retries == 2  # untouched


# -- overlapping stragglers end-to-end -------------------------------------------


class TestOverlappingStragglers:
    def test_overlapping_windows_compound_in_a_real_run(self):
        # Multiplicative semantics end-to-end: a run whose windows
        # overlap is slower than the same windows applied one at a
        # time, and the flux stays bitwise exact throughout.
        ref = _reference_phi()
        w1 = StragglerWindow(1, 0.0, 500e-6, 3.0)
        w2 = StragglerWindow(1, 0.0, 500e-6, 2.0)
        runs = {}
        for name, windows in {
            "one": (w1,), "other": (w2,), "both": (w1, w2),
        }.items():
            rep, phi = _run(FaultPlan(stragglers=windows))
            assert_array_equal(phi, ref)
            runs[name] = rep.makespan
        assert runs["both"] > runs["one"] > runs["other"]


# -- chaos campaign driver -------------------------------------------------------


class TestChaosCampaign:
    def test_plan_is_pure_function_of_seed_and_nprocs(self):
        a = random_fault_plan(11, 4)
        b = random_fault_plan(11, 4)
        assert a == b  # dataclass equality: the reproducibility contract
        assert random_fault_plan(12, 4) != a
        assert random_fault_plan(11, 8) != a

    def test_generated_plans_always_leave_a_survivor(self):
        space = ChaosSpace(intensity=1.0)
        for nprocs in (2, 4, 8):
            for seed in range(60):
                plan = random_fault_plan(seed, nprocs, space)
                assert plan.max_casualties() < nprocs
                plan.validate(nprocs)

    def test_generated_plans_cover_every_fault_class(self):
        space = ChaosSpace(intensity=1.0)
        shapes = [random_fault_plan(seed, 8, space) for seed in range(40)]
        assert any(p.crashes for p in shapes)
        assert any(c.cascades() for p in shapes for c in p.crashes)
        assert any(p.stragglers for p in shapes)
        assert any(p.partitions for p in shapes)
        assert all(p.p_drop > 0 and p.p_corrupt > 0 for p in shapes)

    def test_space_toggles_disable_classes(self):
        space = ChaosSpace(intensity=1.0, crashes=False, partitions=False,
                           corrupt=False)
        for seed in range(20):
            plan = random_fault_plan(seed, 4, space)
            assert not plan.crashes and not plan.partitions
            assert plan.p_corrupt == 0.0

    def test_small_campaign_bitwise_exact(self):
        res = run_campaign(range(2), kinds=("structured",),
                           modes=("hybrid",))
        assert res.total == 2
        assert res.passed == 2
        assert res.stalls == 0
        summary = res.summary()
        assert summary["exact"] == 2
        assert summary["cases"][0]["plan"]  # plan shape recorded

    def test_run_case_reports_stall_instead_of_raising(self, monkeypatch):
        import repro.chaos as chaos

        def wedge(seed, nprocs, space):
            return FaultPlan(
                partitions=(LinkPartition(0, 1, 50e-6, math.inf),), seed=3
            )

        monkeypatch.setattr(chaos, "random_fault_plan", wedge)
        case = run_case("structured", "hybrid", 0)
        assert case.stalled and not case.ok
        assert "partitioned" in case.error

    def test_run_case_reports_an_order_violation_instead_of_raising(self, monkeypatch):
        """A run whose order record breaks the sweep DAG (every run stamps
        its cells in reverse pop order) is a failed case naming the
        violation, not an exception out of the campaign."""
        real = OrderRecord.stamp
        monkeypatch.setattr(OrderRecord, "stamp",
                            lambda self, cells, angle: real(self, cells[::-1], angle))
        case = run_case("structured", "hybrid", 0)
        assert not case.ok and not case.exact and not case.stalled
        assert "sweep order" in case.error
