"""The one master loop against a one-at-a-time reference interpreter.

``runtime/loop.py`` drains whole same-timestamp batches in every run
mode - faults, deadlines, snapshots, traces included.  The oracle here
drives the *same* composed handler table with ``Simulator.pop()``, one
event at a time and with the same-time turnaround never armed, which is
the semantics the batch drain has to reproduce bit for bit.  It
replaces the cross-loop equivalence the golden fixtures used to carry
implicitly while two hand-maintained loops existed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import ReproError
from repro.chaos import ChaosSpace, build_scenario, random_fault_plan
from repro.core.stream import Stream
from repro.persist import report_fingerprint
from repro.runtime import (
    AdaptiveConfig,
    DataDrivenRuntime,
    DeadlineExceeded,
    RecoveryConfig,
    Simulator,
    StallError,
)
from repro.runtime import engine_des
from repro.runtime.loop import run_loop
from repro.runtime.simulator import KindRow
from repro.runtime.transport import PendingSend


def reference_loop(rt, ctx, deadline=None):
    """Alg. 1 with one ``pop()`` per iteration over ``ctx.table``."""
    sim, report = ctx.sim, ctx.report
    handlers, control, stale = ctx.table
    while sim:
        if deadline is not None and sim.peek_time() > deadline:
            return sim.peek_time()
        now, kind, data = sim.pop()
        kid = sim.kind_id(kind)
        if control[kid]:
            handlers[kid](data, now)
            continue
        if stale[kid] is not None and stale[kid](data, now):
            continue
        sim.observe(now)
        report.events += 1
        handlers[kid](data, now)
    return None


def _shipped(rt, progs, patch_proc, deadline):
    return rt.run(progs, patch_proc, deadline=deadline)


def _reference(rt, progs, patch_proc, deadline):
    ctx = rt._compose(progs, patch_proc)
    rt._seed(ctx)
    assert reference_loop(rt, ctx, deadline) is None
    return rt._finish(ctx)


#: variant -> (fault space or None, runtime kwargs)
VARIANTS = {
    "clean": (None, {}),
    "lossy": (
        ChaosSpace(crashes=False, cascades=False, stragglers=False,
                   partitions=False, corrupt=False, intensity=1.0),
        {},
    ),
    "flapping": (
        ChaosSpace(flapping=True),
        {"recovery": RecoveryConfig(membership=True)},
    ),
    "adaptive": (
        ChaosSpace(),
        {"recovery": RecoveryConfig(adaptive=AdaptiveConfig(
            adaptive_rto=True, demotion=True))},
    ),
}

_SCENARIOS = {}


def _scenario(kind, mode):
    if (kind, mode) not in _SCENARIOS:
        _SCENARIOS[kind, mode] = build_scenario(kind, mode)
    return _SCENARIOS[kind, mode]


def _observe(driver, kind, mode, variant, seed, deadline, trace):
    machine, cores, pset, solver = _scenario(kind, mode)
    space, kw = VARIANTS[variant]
    nprocs = machine.layout(cores, mode).nprocs
    plan = random_fault_plan(seed, nprocs, space) if space else None
    progs, faces = solver.build_programs(resilient=True)
    rt = DataDrivenRuntime(
        cores, machine=machine, mode=mode, faults=plan, trace=trace, **kw
    )
    try:
        rep = driver(rt, progs, pset.patch_proc, deadline)
    except StallError as e:
        r = e.report
        return ("stall", r.now, r.last_progress, r.waiting, r.lost, r.cycle)
    phi, _ = solver.accumulate(faces)
    return (
        report_fingerprint(rep, phi), rep.event_counts,
        rep.membership_summary(), rep.trace_events, rep.hb_events,
    )


@given(
    kind=st.sampled_from(["structured", "unstructured"]),
    mode=st.sampled_from(["hybrid", "mpi_only"]),
    variant=st.sampled_from(sorted(VARIANTS)),
    seed=st.integers(0, 10_000),
    deadline=st.sampled_from([None, 1e3]),
    trace=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_batch_drain_matches_one_at_a_time(
    kind, mode, variant, seed, deadline, trace
):
    args = (kind, mode, variant, seed, deadline, trace)
    assert _observe(_shipped, *args) == _observe(_reference, *args)


def _stalled_context():
    """A wedged reliable run, hand-built: one send is still un-acked,
    and a *duplicate* of an already-delivered stream arrives at exactly
    the timestamp of its retransmit timer, far past the horizon."""
    machine, cores, pset, solver = _scenario("structured", "hybrid")
    progs, _ = solver.build_programs(resilient=True)
    rt = DataDrivenRuntime(
        cores, machine=machine,
        recovery=RecoveryConfig(watchdog_horizon=2e-3),
    )
    ctx = rt._compose(progs, pset.patch_proc)
    pids, proc_of = ctx.router.pids, ctx.router.proc_of
    src = pids[0]
    dst = next(p for p in pids if proc_of[p] != proc_of[src])
    seen = Stream(src, dst, seq=0)
    ctx.transport.seen.add(seen.uid)
    lost = Stream(src, dst, seq=1)
    ctx.transport.pending[lost.uid] = PendingSend(lost, src, 1e-3)
    t = 5e-3
    ctx.sim.push(t, "msg_arrive", (proc_of[dst], seen, None))
    ctx.sim.push(t, "timer", (lost.uid, 0))
    return rt, ctx, t


@pytest.mark.parametrize("loop", [run_loop, reference_loop])
def test_discarded_arrival_then_timer_at_one_timestamp_stalls(loop):
    """The discarded duplicate is a progress *kind* but no progress:
    ``retract_progress`` must still let the timer behind it - drained
    in the same batch - trip the watchdog, at the identical time."""
    rt, ctx, t = _stalled_context()
    with pytest.raises(StallError) as ei:
        loop(rt, ctx, None)
    rep = ei.value.report
    assert (rep.now, rep.last_progress) == (t, 0.0)
    assert [e.reason for e in rep.waiting] == ["awaiting ack"]
    # events and the pop coordinate are current when the stall unwinds
    assert ctx.report.events == 1
    assert ctx.sim.event_counts() == {"msg_arrive": 1, "timer": 1}


def _tiny(**kw):
    machine, cores, pset, solver = _scenario("unstructured", "hybrid")
    progs, _ = solver.build_programs(compute=False, resilient=True)
    return DataDrivenRuntime(cores, machine=machine, **kw), progs, pset


def test_deadline_report_carries_perf_accounting():
    """A cancelled run's partial report is accounted through the same
    helper as a finished one, and the first event past the budget is
    neither popped, counted nor traced."""
    rt, progs, pset = _tiny(trace=True)
    deadline = 1e-4
    with pytest.raises(DeadlineExceeded) as ei:
        rt.run(progs, pset.patch_proc, deadline=deadline)
    e = ei.value
    rep = e.report
    assert e.now > deadline
    assert rep.events > 0 and rep.peak_heap > 0
    assert sum(rep.event_counts.values()) == rep.events
    assert len(rep.trace_events) == rep.events
    assert max(ev.time for ev in rep.trace_events) <= deadline
    assert rep.perf_summary()["event_counts"] == rep.event_counts


def _rows(*kinds):
    return [KindRow(k, lambda data, now: None) for k in kinds]


class TestKindTable:
    def test_double_registration_names_the_kind(self):
        with pytest.raises(ReproError, match="'deliver' is registered twice"):
            Simulator().declare(_rows("deliver", "deliver"))

    def test_interned_but_unowned_kind_fails_at_composition(self):
        sim = Simulator()
        sim.kind_id("ghost")  # some layer means to push it
        with pytest.raises(ReproError, match="ghost"):
            sim.declare(_rows("deliver"))

    def test_unknown_kind_cannot_reach_the_loop(self):
        rt, progs, pset = _tiny()
        ctx = rt._compose(progs, pset.patch_proc)
        with pytest.raises(ReproError, match="'bogus' has no registered"):
            ctx.sim.push(0.0, "bogus", None)

    def test_fifteen_kinds_each_with_one_owner(self):
        rt, progs, pset = _tiny(recovery=RecoveryConfig())
        ctx = rt._compose(progs, pset.patch_proc)
        handlers, control, stale = ctx.table
        owners = {}
        for layer in (ctx.sched, ctx.transport, ctx.rec):
            for row in layer.kinds():
                owners.setdefault(row.kind, []).append(type(layer).__name__)
        assert len(owners) == len(handlers) == 15
        assert all(len(v) == 1 for v in owners.values())
        assert sum(control) == 6  # ack nack timer hbeat hback restart


def test_run_and_resume_reach_the_same_loop(monkeypatch, tmp_path):
    """Every combination of faults / deadline / persist / trace /
    sanitize - fresh or resumed - is driven by the one loop function."""
    from repro.persist import SnapshotManager

    calls = []

    def spy(rt, ctx, deadline):
        calls.append((ctx.ft, deadline, ctx.persist is not None, rt.trace))
        return run_loop(rt, ctx, deadline)

    monkeypatch.setattr(engine_des, "run_loop", spy)
    plan = random_fault_plan(3, 4, ChaosSpace())
    rt, progs, pset = _tiny()
    rt.run(progs, pset.patch_proc)
    rt, progs, pset = _tiny(trace=True, sanitize=True)
    rt.run(progs, pset.patch_proc, deadline=1e3)
    rt, progs, pset = _tiny(faults=plan)
    mgr = SnapshotManager(tmp_path, every=200, fsync=False)
    rt.run(progs, pset.patch_proc, persist=mgr, deadline=1e3)
    state = mgr.load_latest()
    rt, progs, pset = _tiny(faults=plan)
    rt.resume(progs, pset.patch_proc, state)
    assert calls == [
        (False, None, False, False), (False, 1e3, False, True),
        (True, 1e3, True, False), (True, None, False, False),
    ]
