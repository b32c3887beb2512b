"""Durable execution: kill-resume exactness, snapshot fallback, WAL replay.

The durability contract of ``repro.persist``:

* a run cut dead at *any* popped-event index (honoured at the first
  same-timestamp batch boundary at or past it) and restarted from disk
  finishes **bitwise-identical** to the uninterrupted run (makespan,
  breakdown, every fault counter, and the host-owned flux arrays);
* a snapshot generation torn by the crash falls back to the previous
  generation, still bitwise-exact;
* the service write-ahead journal replays to exactly one terminal
  record per submission and never commits a content hash twice, even
  with a torn journal tail.

The kill-resume matrix below runs 30 seeded host crashes across six
runtime cells (structured/unstructured x hybrid/mpi_only x
clean/faulty, plus the demotion-armed "adaptive" cell) at five cut
fractions each - the ISSUE's ">= 25 seeded kill-resume runs".
Reference fingerprints (uninterrupted, snapshotting off) are computed
once per cell and cached for the module.
"""

import collections
import functools

import pytest

from repro.persist import SnapshotManager, kill_and_resume, report_fingerprint
from repro.persist.snapshot import FluxArrayState
from repro.runtime import (
    DataDrivenRuntime, HostKilled, Machine, RecoveryConfig,
)
from repro.runtime.metrics import Breakdown, RunReport
from repro.service import (
    JobExecutor, JobSpec, JobStatus, ServiceConfig, SweepService,
    WriteAheadLog, replay_wal,
)
from tests.test_golden_fixtures import _fault_plan, _machine, _solver

#: cell name -> (mesh kind, runtime mode, faults on, demotion on)
CELLS = {
    "structured-hybrid-clean": ("structured", "hybrid", False, False),
    "structured-hybrid-faulty": ("structured", "hybrid", True, False),
    "structured-mpi_only-faulty": ("structured", "mpi_only", True, False),
    "unstructured-hybrid-clean": ("unstructured", "hybrid", False, False),
    "unstructured-mpi_only-faulty": ("unstructured", "mpi_only", True, False),
    "structured-hybrid-adaptive": ("structured", "hybrid", True, True),
}

#: Seeded cut points as fractions of the cell's data-plane event count.
#: The first lands before the first snapshot cadence (degenerate
#: re-run-from-scratch resume); the rest cut mid-flight.
CUT_FRACS = (0.02, 0.25, 0.5, 0.75, 0.95)


def _factory(name):
    """A process-restart factory for one matrix cell.

    Each call rebuilds the *entire* world - solver, programs, flux
    arrays, runtime - exactly as a restarted process re-executing its
    setup code would; nothing but the snapshot directory survives a
    kill.  ``factory.extra`` carries the latest (solver, faces) pair so
    the test can accumulate flux after the run.
    """
    kind, mode, faulty, demotion = CELLS[name]
    machine = _machine()
    cores = 16 if mode == "hybrid" else 8
    nprocs = machine.layout(cores, mode).nprocs
    plan = _fault_plan() if faulty else None

    def factory():
        pset, s = _solver(kind, nprocs)
        progs, faces = s.build_programs(resilient=faulty)
        rt = DataDrivenRuntime(
            cores, machine=machine, mode=mode, faults=plan,
            recovery=(
                RecoveryConfig(demotion=True) if demotion else None
            ),
        )
        factory.extra = (s, faces)
        return rt, progs, pset.patch_proc, FluxArrayState(faces)

    return factory


def _fingerprint(factory, report) -> str:
    s, faces = factory.extra
    phi, _ = s.accumulate(faces)
    return report_fingerprint(report, flux=phi)


#: cell name -> (reference fingerprint, reference event count), filled
#: lazily; the reference run has no persist hook at all.
_REFERENCE: dict = {}


def _reference(name):
    if name not in _REFERENCE:
        f = _factory(name)
        rt, progs, pp, _app = f()
        rep = rt.run(progs, pp)
        assert rep.snapshots == 0 and rep.snapshot_bytes == 0
        _REFERENCE[name] = (_fingerprint(f, rep), rep.events)
    return _REFERENCE[name]


# -- the kill-resume matrix (>= 25 seeded host crashes) --------------------------


@pytest.mark.parametrize("frac", CUT_FRACS)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_kill_resume_is_bitwise_exact(cell, frac, tmp_path):
    ref_fp, events = _reference(cell)
    kill_at = max(1, int(frac * events))
    every = max(20, events // 6)
    f = _factory(cell)
    rep, mgr, killed = kill_and_resume(
        f, kill_at=kill_at, every=every, workdir=tmp_path
    )
    assert killed, (
        f"{cell}: kill at {kill_at} never fired ({events} events)"
    )
    assert _fingerprint(f, rep) == ref_fp, (
        f"{cell}: resume from cut {kill_at} diverged from the "
        "uninterrupted run"
    )


def test_snapshot_armed_run_matches_unsnapshotted(tmp_path):
    """Arming the snapshot hook (without killing) must not perturb the
    simulation: the loop with persist on equals the reference."""
    cell = "structured-hybrid-faulty"
    ref_fp, events = _reference(cell)
    f = _factory(cell)
    rt, progs, pp, app = f()
    mgr = SnapshotManager(
        tmp_path, every=max(20, events // 5), app_state=app, fsync=False
    )
    rep = rt.run(progs, pp, persist=mgr)
    assert rep.snapshots >= 2 and rep.snapshot_bytes > 0
    assert _fingerprint(f, rep) == ref_fp


def test_kill_strictly_inside_a_batch_cuts_at_its_boundary(tmp_path):
    """``every``/``kill_at`` count popped events but are honoured
    between same-timestamp batches: a mark strictly inside a batch
    fires once, at the batch's end, and ``HostKilled.popped`` /
    ``state["popped"]`` report the actual cut."""
    cell = "structured-hybrid-faulty"
    ref_fp, _ = _reference(cell)
    f = _factory(cell)
    rt, progs, pp, _app = f()
    rt.trace = True  # one trace record per popped event, in pop order
    times = [e.time for e in rt.run(progs, pp).trace_events]
    n = len(times)
    boundaries = [
        j for j in range(n + 1) if j in (0, n) or times[j - 1] != times[j]
    ]
    kill_at = next(j for j in range(n // 2, n) if times[j - 1] == times[j])
    cut = min(b for b in boundaries if b >= kill_at)
    assert cut > kill_at and cut - boundaries[boundaries.index(cut) - 1] > 1
    every = kill_at // 3

    rt, progs, pp, app = f()
    mgr = SnapshotManager(
        tmp_path, every=every, kill_at=kill_at, app_state=app, fsync=False
    )
    with pytest.raises(HostKilled) as ei:
        rt.run(progs, pp, persist=mgr)
    assert ei.value.popped == cut

    rt, progs, pp, app = f()
    mgr = SnapshotManager(tmp_path, every=every, app_state=app, fsync=False)
    state = mgr.load_latest()
    assert state["popped"] in boundaries and every <= state["popped"] <= cut
    rep = rt.resume(progs, pp, state, persist=mgr)
    assert _fingerprint(f, rep) == ref_fp


def test_corrupt_latest_snapshot_falls_back_a_generation(tmp_path):
    """A snapshot torn by the crash is skipped: the resume loads the
    previous generation and still finishes bitwise-exact."""
    cell = "structured-hybrid-faulty"
    ref_fp, events = _reference(cell)
    every = max(20, events // 8)
    kill_at = 6 * every  # several generations exist by the kill point
    f = _factory(cell)
    rt, progs, pp, app = f()
    mgr = SnapshotManager(
        tmp_path, every=every, keep=3, kill_at=kill_at,
        app_state=app, fsync=False,
    )
    with pytest.raises(HostKilled):
        rt.run(progs, pp, persist=mgr)
    snaps = sorted(tmp_path.glob("snap-*.rsnap"))
    assert len(snaps) >= 2
    # Tear the newest generation in half, as a mid-write crash would.
    data = snaps[-1].read_bytes()
    snaps[-1].write_bytes(data[: len(data) // 2])
    # Fresh process: the manager must skip the torn file.
    rt2, progs2, pp2, app2 = f()
    mgr2 = SnapshotManager(tmp_path, every=every, app_state=app2, fsync=False)
    state = mgr2.load_latest()
    assert state is not None
    assert state["popped"] < kill_at  # an *earlier* generation loaded
    rep = rt2.resume(progs2, pp2, state, persist=mgr2)
    assert _fingerprint(f, rep) == ref_fp


def test_every_generation_corrupt_means_rerun_from_scratch(tmp_path):
    """With no decodable generation left the resume degenerates to a
    plain re-run - still exact, never wedged."""
    cell = "structured-hybrid-clean"
    ref_fp, events = _reference(cell)
    f = _factory(cell)
    rt, progs, pp, app = f()
    mgr = SnapshotManager(
        tmp_path, every=max(20, events // 4), kill_at=events // 2,
        app_state=app, fsync=False,
    )
    with pytest.raises(HostKilled):
        rt.run(progs, pp, persist=mgr)
    for p in tmp_path.glob("snap-*.rsnap"):
        p.write_bytes(b"not a snapshot")
    rt2, progs2, pp2, app2 = f()
    mgr2 = SnapshotManager(tmp_path, every=10**9, app_state=app2, fsync=False)
    assert mgr2.load_latest() is None
    rep = rt2.run(progs2, pp2, persist=mgr2)
    assert _fingerprint(f, rep) == ref_fp


def test_snapshot_rejects_foreign_configuration(tmp_path):
    """A snapshot only restores into a structurally identical
    composition: a different mode/layout is refused up front."""
    from repro._util import ReproError

    f = _factory("structured-hybrid-clean")
    rt, progs, pp, app = f()
    mgr = SnapshotManager(tmp_path, every=50, kill_at=200,
                          app_state=app, fsync=False)
    with pytest.raises(HostKilled):
        rt.run(progs, pp, persist=mgr)
    state = SnapshotManager(tmp_path, app_state=app).load_latest()
    assert state is not None
    machine = _machine()
    nprocs = machine.layout(8, "mpi_only").nprocs
    pset2, s2 = _solver("structured", nprocs)
    progs2, _ = s2.build_programs()
    other = DataDrivenRuntime(8, machine=machine, mode="mpi_only")
    with pytest.raises(ReproError, match="different runtime configuration"):
        other.restore(progs2, pset2.patch_proc, state)


def test_v1_runtime_snapshot_is_refused():
    """Schema version 1 held deep-copied program attributes; a snapshot
    stamped with it (or any older version) is refused up front, never
    half-loaded."""
    from repro._util import ReproError
    from repro.runtime import SNAPSHOT_VERSION

    assert SNAPSHOT_VERSION == 7
    f = _factory("structured-hybrid-clean")
    rt, progs, pp, _app = f()
    # 2: slab heap entries and program run counters; 3: speculation
    # sets, flow-control credits and a backup flag on run-end events;
    # 4: a run report with a counter of undone demotions; 5: a
    # simulator progress clock and pending sends without ``armed_at``;
    # 6: ndarray sweep stream payloads.
    for old in (1, 2, 3, 4, 5, 6):
        with pytest.raises(ReproError, match=f"unsupported snapshot version {old}"):
            rt.restore(progs, pp, {"version": old})


# -- capture cost: counted, not timed ---------------------------------------------

#: ``_encode_into`` calls allowed per program context or stream in a
#: snapshot (measured 31; the per-element path took 180).
ENCODE_CALLS_PER_ITEM = 48
#: Snapshot bytes allowed per program and generation (measured 695 on
#: the smoke reactor; deep-copied contexts took 2252).
SNAPSHOT_BYTES_PER_PROGRAM = 1024


def test_state_capture_costs_o1_calls_per_program(tmp_path, monkeypatch):
    """A snapshot copies flat lists and packs them: no ``deepcopy``, a
    bounded number of codec calls per program or stream (never one per
    counter), and a generation within a bytes-per-program budget."""
    import copy

    from repro import JSNTU
    from repro.core.stream import Stream
    from repro.persist import codec

    machine = Machine(cores_per_proc=12)
    app = JSNTU.reactor(8, total_cores=48, machine=machine, patch_size=60,
                        grain=64, groups=1)
    programs, _ = app.solver.build_programs(compute=False)
    calls = collections.Counter()
    encode_into = codec._encode_into

    def counting(buf, obj):
        calls["encode"] += 1
        calls["streams"] += type(obj) is Stream
        encode_into(buf, obj)

    def no_deepcopy(*args, **kw):
        raise AssertionError("deepcopy on the state-capture path")

    monkeypatch.setattr(codec, "_encode_into", counting)
    monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
    rep = DataDrivenRuntime(48, machine=machine).run(
        programs, app.pset.patch_proc,
        persist=SnapshotManager(tmp_path, every=600, fsync=False),
    )
    assert rep.snapshots >= 3
    contexts = rep.snapshots * len(programs)
    assert calls["encode"] <= ENCODE_CALLS_PER_ITEM * (contexts + calls["streams"])
    assert rep.snapshot_bytes <= SNAPSHOT_BYTES_PER_PROGRAM * contexts


# -- elastic membership armed: incarnation tags survive the snapshot -------------


def test_stream_incarnation_survives_the_codec():
    """A stale-incarnation stream that was in flight at the cut is
    still fenced after the round trip (the v1 record dropped ``inc``,
    which read as "membership off" and let it through)."""
    from repro.persist import decode, encode
    from tests.test_membership import _mtransport
    from repro.core.stream import ProgramId, Stream

    _, router, tr = _mtransport()
    s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
    tr.send(s, s.src, 0, 0.0, 0, 1)
    back = decode(encode(s))
    assert back == s and back.inc == (0, 0)
    router.fence(0)  # the sender's old life is fenced off
    assert not tr.receive(back, 1, 1e-6)
    assert tr.report.fenced_messages == 1


def _membership_factory():
    """Crash -> restart -> rejoin -> second crash of rank 1 (the
    ``ChaosSpace.flapping`` shape) under heartbeat detection."""
    from repro.runtime import CrashFault, FaultPlan
    from tests.test_chaos import CORES, _setup

    plan = FaultPlan(crashes=(
        CrashFault(1, 120e-6, restart_after=350e-6),
        CrashFault(1, 700e-6),
    ), p_drop=0.03, seed=7)

    def factory():
        machine, pset, s = _setup()
        progs, faces = s.build_programs(resilient=True)
        rt = DataDrivenRuntime(
            CORES, machine=machine, faults=plan,
            recovery=RecoveryConfig(membership=True),
        )
        factory.extra = (s, faces)
        return rt, progs, pset.patch_proc, FluxArrayState(faces)

    return factory


@functools.cache
def _membership_reference():
    f = _membership_factory()
    rt, progs, pp, _app = f()
    ref = rt.run(progs, pp)
    assert ref.membership_summary()["restarts"] == 1
    return _fingerprint(f, ref), ref.events, ref.membership_summary()


@pytest.mark.parametrize("frac", (0.2, 0.4, 0.6, 0.8))
def test_membership_armed_kill_resume_is_bitwise_exact(frac, tmp_path):
    ref_fp, events, summary = _membership_reference()
    f = _membership_factory()
    rep, _mgr, killed = kill_and_resume(
        f, kill_at=int(frac * events), every=max(20, events // 12),
        workdir=tmp_path,
    )
    assert killed
    assert _fingerprint(f, rep) == ref_fp
    assert rep.membership_summary() == summary


# -- service WAL: mid-campaign kill, torn tail, exactly-once ---------------------


def _submissions(n=10, tenants=3, seed=11):
    """Seeded specs with deliberate duplicate content (same tenant+seed
    -> same content hash) to exercise cache hits and coalescing."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for j in range(n):
        tenant = f"tenant-{int(rng.integers(0, tenants))}"
        spec = JobSpec(tenant=tenant, seed=int(rng.integers(0, 4)))
        out.append((j * 0.4e-3, spec))
    return out


def _ledger(svc) -> collections.Counter:
    c = collections.Counter((r.key, r.tenant) for r in svc.results)
    for d in svc.rejections:
        c[("<shed>", d["tenant"])] += 1
    return c


@pytest.mark.parametrize("cut", [1, 3, 6, 9, 14])
def test_service_wal_replay_is_exactly_once(tmp_path, cut):
    """Kill the service mid-campaign (with a torn journal tail), recover
    from the WAL, drain - every submission gets exactly one terminal
    record and no content hash commits twice."""
    wal_path = tmp_path / "service.wal"
    cfg = ServiceConfig(workers=2, tenant_slots=8, global_slots=64,
                        worker_crash_rate=0.2, seed=5)
    subs = _submissions()
    expected = collections.Counter(
        (spec.key(), spec.tenant) for _, spec in subs
    )
    svc = SweepService(cfg, executor=JobExecutor(),
                       wal=WriteAheadLog(wal_path, fsync=False))
    for at, spec in subs:
        svc.submit(spec, at=at)
    svc.run_until_idle(max_events=cut)  # the host dies here
    committed_before = dict(svc.committed)
    # A crash mid-append leaves a torn tail: half a frame header.
    with open(wal_path, "ab") as fh:
        fh.write(b"RPRS\x00\x01")
    svc2 = SweepService.recover(cfg, wal_path, executor=JobExecutor(),
                                fsync=False)
    results = svc2.run_until_idle()
    # Exactly one terminal record per submission, none shed.
    assert svc2.rejections == []
    assert _ledger(svc2) == expected
    # No duplicate commits: one primary (non-cached) COMPLETED record
    # per committed content hash, and pre-kill commits survive as-is.
    primaries = [r for r in results
                 if r.status == JobStatus.COMPLETED and not r.cached]
    assert len(primaries) == len({r.key for r in primaries})
    assert {r.key for r in primaries} == set(svc2.committed)
    for key, r in committed_before.items():
        assert svc2.committed[key].flux_crc == r.flux_crc
    # Job ids never collide across the crash.
    ids = [r.job_id for r in results]
    assert len(ids) == len(set(ids))


def test_service_wal_journals_rejections(tmp_path):
    """Shed submissions are journaled too: the replayed ledger still
    adds up to one record per submission."""
    wal_path = tmp_path / "service.wal"
    cfg = ServiceConfig(workers=1, tenant_slots=1, global_slots=2, seed=3)
    specs = [JobSpec(tenant="t0", seed=i) for i in range(6)]
    svc = SweepService(cfg, executor=JobExecutor(),
                       wal=WriteAheadLog(wal_path, fsync=False))
    for spec in specs:
        svc.submit(spec, at=0.0)
    svc.run_until_idle(max_events=8)
    svc2 = SweepService.recover(cfg, wal_path, executor=JobExecutor(),
                                fsync=False)
    svc2.run_until_idle()
    assert len(svc2.results) + len(svc2.rejections) == len(specs)
    assert sum(
        1 for r in svc2.results if r.status == JobStatus.COMPLETED
    ) == len(svc2.committed) > 0


def test_service_wal_replay_does_not_latch_degradation(tmp_path):
    """Replay must not count journaled submissions that were shed or
    never admitted into a backlog: with ``degrade_at=1.0`` (degradation
    off) the recovered service stays at full fidelity, as the live one
    would have."""
    wal_path = tmp_path / "service.wal"
    cfg = ServiceConfig(workers=1, tenant_slots=2, global_slots=2,
                        degrade_at=1.0)
    svc = SweepService(cfg, executor=JobExecutor(),
                       wal=WriteAheadLog(wal_path, fsync=False))
    for tenant in ("a", "b", "c"):
        svc.submit(JobSpec(tenant=tenant, seed=ord(tenant)), at=0.0)
    svc.run_until_idle(max_events=3)  # a runs, b queues, c is shed
    assert not svc.degraded and len(svc.rejections) == 1
    svc2 = SweepService.recover(cfg, wal_path, executor=JobExecutor(),
                                fsync=False)
    assert not svc2.degraded
    results = svc2.run_until_idle()
    assert [r.status for r in results] == [JobStatus.COMPLETED] * 2
    assert not any(r.demoted for r in results) and svc2.demotions == 0


def test_service_wal_replay_resumes_the_clock_of_the_last_effect(tmp_path):
    """Submissions are journaled when queued, with future arrival
    times; the replayed clock must come from records that took effect,
    and a submission that had not arrived at the cut must arrive at its
    own time, not at the last journaled arrival."""
    wal_path = tmp_path / "service.wal"
    cfg = ServiceConfig(workers=2, tenant_slots=8, global_slots=64, seed=5)
    subs = _submissions()
    svc = SweepService(cfg, executor=JobExecutor(),
                       wal=WriteAheadLog(wal_path, fsync=False))
    for at, spec in subs:
        svc.submit(spec, at=at)
    svc.run_until_idle(max_events=3)
    assert svc.results == []  # nothing settled before the cut
    svc2 = SweepService.recover(cfg, wal_path, executor=JobExecutor(),
                                fsync=False)
    resumed = svc2.now
    assert resumed <= svc.now < subs[-1][0]
    results = svc2.run_until_idle()
    assert sorted(r.submitted for r in results) == sorted(
        max(at, resumed) for at, _ in subs
    )


def test_service_wal_clean_replay_matches_uninterrupted(tmp_path):
    """A full (never-killed) campaign replayed from its journal carries
    the same committed store - the WAL is a faithful history."""
    wal_path = tmp_path / "service.wal"
    cfg = ServiceConfig(workers=2, tenant_slots=8, global_slots=64, seed=9)
    subs = _submissions(n=8, seed=21)
    svc = SweepService(cfg, executor=JobExecutor(),
                       wal=WriteAheadLog(wal_path, fsync=False))
    for at, spec in subs:
        svc.submit(spec, at=at)
    svc.run_until_idle()
    records, good = replay_wal(wal_path)
    assert good > 0 and len(records) >= len(subs)
    svc2 = SweepService.recover(cfg, wal_path, executor=JobExecutor(),
                                fsync=False)
    assert svc2.run_until_idle() == svc2.results
    assert set(svc2.committed) == set(svc.committed)
    for key, r in svc.committed.items():
        assert svc2.committed[key].flux_crc == r.flux_crc
        assert svc2.committed[key].makespan == r.makespan
    assert _ledger(svc2) == _ledger(svc)


# -- satellite: degenerate-report guards -----------------------------------------


def test_zero_report_summaries_do_not_divide_by_zero():
    """A degenerate report (no cores, no events, no wall time) renders
    and summarizes to zeros instead of raising ZeroDivisionError."""
    rep = RunReport(makespan=0.0, breakdown=Breakdown(), total_cores=0)
    assert rep.perf_summary()["events_per_sec"] == 0.0
    avg = rep.avg_seconds_per_core()
    assert avg and all(v == 0.0 for v in avg.values())
    assert "makespan" in rep.format_breakdown("degenerate")
    assert rep.overhead_fraction() == 0.0
    assert rep.idle_fraction() == 0.0
