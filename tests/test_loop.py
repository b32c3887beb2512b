"""The one master loop against a one-at-a-time reference interpreter.

``runtime/loop.py`` pops one event per iteration straight off the heap
in every run mode - faults, deadlines, snapshots, traces included - and
settles the counters nothing reads mid-run in bulk.  The oracle here
drives the *same* composed handler table with ``Simulator.pop()`` and
per-event accounting, which is the semantics the shipped loop has to
reproduce bit for bit.  It replaces the cross-loop equivalence the
golden fixtures used to carry implicitly while two hand-maintained
loops existed.  The last two tests count what the loop costs per event:
heap pops, and numpy round trips of stream payloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import ReproError
from repro.apps import JSNTU
from repro.chaos import ChaosSpace, build_scenario, random_fault_plan
from repro.core.stream import Stream
from repro.persist import report_fingerprint
from repro.runtime import (
    DataDrivenRuntime,
    DeadlineExceeded,
    FaultPlan,
    Machine,
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
        if deadline is not None and sim._events[0][0] > deadline and not (
            ctx.ft and ctx.rec.quiescent() and ctx.tracker.is_done()
        ):
            return sim._events[0][0]
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
    "demotion": (
        ChaosSpace(),
        {"recovery": RecoveryConfig(demotion=True)},
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
        return ("stall", r.now, r.since, r.waiting, r.lost, r.cycle)
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
    """A wedged reliable run, hand-built: one send, armed at t=0, is
    still un-acked, and a *duplicate* of an already-delivered stream
    arrives at exactly the timestamp of its retransmit timer, far past
    the horizon."""
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
    ctx.transport.pending[lost.uid] = PendingSend(lost, src, 1e-3, 0.0)
    t = 5e-3
    ctx.sim.push(t, "msg_arrive", (proc_of[dst], seen, None))
    ctx.sim.push(t, "timer", (lost.uid, 0))
    return rt, ctx, t


@pytest.mark.parametrize("loop", [run_loop, reference_loop])
def test_discarded_arrival_then_timer_at_one_timestamp_stalls(loop):
    """The discarded duplicate is a progress *kind* but no progress:
    the timer behind it - popped at the same timestamp - still gives up
    on the old send, at the identical time from either loop."""
    rt, ctx, t = _stalled_context()
    with pytest.raises(StallError) as ei:
        loop(rt, ctx, None)
    rep = ei.value.report
    assert (rep.now, rep.since) == (t, 0.0)
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


@pytest.mark.parametrize("driver", [_shipped, _reference])
def test_a_finished_run_is_not_cut_by_its_leftovers(driver):
    """A run whose last delivery lands before the deadline returns its
    normal report, even when inert events it leaves behind (a
    checkpoint at 0.8 ms here, or a lazily cancelled timer) lie past
    the deadline - they used to report it overrun, fully solved."""
    machine, cores, pset, solver = _scenario("structured", "hybrid")
    plan = FaultPlan(p_drop=0.05, p_duplicate=0.05, seed=7)

    def run(deadline):
        progs, _ = solver.build_programs(resilient=True)
        rt = DataDrivenRuntime(
            cores, machine=machine, faults=plan,
            recovery=RecoveryConfig(watchdog_horizon=5e-3),
        )
        return driver(rt, progs, pset.patch_proc, deadline)

    ref = run(None)
    assert ref.event_counts["ckpt"] > 0
    for deadline in (ref.makespan, 0.755e-3):
        assert report_fingerprint(run(deadline)) == report_fingerprint(ref)


@pytest.mark.parametrize("deadline", [float("nan"), 0.0, -1e-3])
def test_a_deadline_that_is_not_positive_is_refused(deadline):
    """NaN passes ``deadline <= 0`` and then never cancels the run."""
    rt, progs, pset = _tiny()
    with pytest.raises(ReproError, match="deadline must be positive"):
        rt.run(progs, pset.patch_proc, deadline=deadline)


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


# -- per-event cost guards: counted, not timed -----------------------------------


def _ball_app():
    return JSNTU.ball(5, total_cores=24, machine=Machine(cores_per_proc=12),
                      patch_size=60, grain=16, groups=1)


def test_warm_scheduling_runs_call_no_array_round_trip(monkeypatch):
    """Sweep streams carry plain-int tuples: once each graph's list
    adjacency is built (five ``tolist`` per graph, on its first partial
    run), a scheduling-only ball sweep calls no ``np.asarray``,
    ``np.array`` or ``ndarray.tolist`` from end to end of its loop."""
    from tests.test_start_tables import _numpy_calls

    seen = []

    def profiled(rt, ctx, deadline):
        out = []
        seen.append(_numpy_calls(lambda: out.append(run_loop(rt, ctx, deadline))))
        return out[0]

    monkeypatch.setattr(engine_des, "run_loop", profiled)
    app = _ball_app()
    cold = app.sweep_report(24)
    warm = app.sweep_report(24)
    assert warm.executions == cold.executions > 0
    graphs = app.solver.topology.graphs.values()
    lists = sum(g._flat_cache is not None for g in {id(g): g for g in graphs}.values())
    assert lists > 0 and seen[0].count("tolist") == 5 * lists
    assert not {"asarray", "array"} & set(seen[0])
    assert not {"asarray", "array", "tolist"} & set(seen[1])


@pytest.mark.parametrize("variant", ["clean", "lossy"])
def test_run_loop_pops_each_event_exactly_once(monkeypatch, variant):
    """One heap pop per event, in every mode: every pushed event leaves
    the heap through exactly one ``heappop`` of the loop, and the pop
    counts are the report's event counts."""
    from repro.runtime import loop

    pops, pushes = [0], [0]
    real_pop, real_push = loop.heappop, Simulator.push_id

    def pop(heap):
        pops[0] += 1
        return real_pop(heap)

    def push_id(self, t, kid, data):
        pushes[0] += 1
        real_push(self, t, kid, data)

    monkeypatch.setattr(loop, "heappop", pop)
    monkeypatch.setattr(Simulator, "push_id", push_id)
    if variant == "clean":
        rep = _ball_app().sweep_report(24)
    else:
        machine, cores, pset, solver = _scenario("unstructured", "hybrid")
        space, kw = VARIANTS[variant]
        plan = random_fault_plan(5, machine.layout(cores, "hybrid").nprocs, space)
        progs, _ = solver.build_programs(resilient=True)
        rep = DataDrivenRuntime(cores, machine=machine, faults=plan, **kw).run(
            progs, pset.patch_proc)
        assert rep.drops + rep.duplicates > 0
    assert pops[0] == pushes[0] == sum(rep.event_counts.values()) > 0
