"""Adaptive-resilience tests: the one retransmit timer (RTT estimation
with Karn's rule, ``ACK_TIMEOUT`` as its cold start, capped backoff),
the one give-up age it runs under, and degraded-mode demotion.

Two tiers: Hypothesis properties pin the estimator and timer algebra
(the RTO clamp holds for *any* sample sequence; Karn's rule excludes
*every* ambiguous ack), and integration runs hold demotion to the
chaos oracle - flux bitwise-identical to the fault-free reference,
because a migration that changes a bit is a bug - and to its
committed ``BENCH_resilience.json`` row.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.chaos import run_case
from repro.core.stream import ProgramId, Stream
from repro.runtime import (
    DataDrivenRuntime,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    Machine,
    RecoveryConfig,
    Router,
    RunReport,
    Simulator,
    StallError,
    StragglerWindow,
    Transport,
)
from repro.chaos import build_scenario
from repro.runtime.faults import (
    ACK_TIMEOUT, BACKOFF, MAX_RTO, MIN_RTO, RTO_K,
)
from repro.runtime.metrics import Breakdown
from repro.runtime.transport import RttEstimator


# -- harness --------------------------------------------------------------------


def _mini_router(nprocs=2):
    class _Prog:
        def __init__(self, patch):
            self.id = ProgramId(patch, 0)

    progs = [_Prog(p) for p in range(nprocs)]
    return Router(progs, np.arange(nprocs), nprocs)


def _transport(rcfg, injector=None):
    machine = Machine(cores_per_proc=4)
    layout = machine.layout(8, "hybrid")  # 2 procs
    sim = Simulator(frozenset({"msg_arrive"}))
    report = RunReport(makespan=0.0, breakdown=Breakdown(), total_cores=8)
    tr = Transport(sim, _mini_router(), machine, layout, report,
                   injector=injector, rcfg=rcfg)
    return sim, tr


def _send(tr, now=0.0):
    s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
    tr.send(s, s.src, 0, now, 0, 1)
    return s


# -- estimator properties --------------------------------------------------------


@given(samples=st.lists(st.floats(1e-7, 1e-2), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_rto_always_within_configured_bounds(samples):
    est = RttEstimator()
    for r in samples:
        est.sample(r)
        assert MIN_RTO <= est.rto(MIN_RTO, MAX_RTO, ACK_TIMEOUT) <= MAX_RTO
        # SRTT is a convex combination of the samples seen so far.
        assert min(samples) <= est.srtt <= max(samples)


def test_first_sample_seeds_rfc6298(rtt=4e-6):
    est = RttEstimator()
    assert est.rto(0.0, 1.0, cold=0.5) == 0.5  # no sample yet: cold value
    est.sample(rtt)
    assert est.srtt == rtt
    assert est.rttvar == rtt / 2
    assert est.rto(0.0, 1.0, cold=0.5) == rtt + RTO_K * rtt / 2


def test_estimator_state_round_trips():
    """``state()`` is the snapshot form both the transport and the
    membership plane store; ``from_state`` rebuilds a twin that keeps
    sampling identically."""
    assert RttEstimator().state() == (None, 0.0, 0)
    est = RttEstimator()
    for r in (5e-6, 9e-6, 4e-6):
        est.sample(r)
    twin = RttEstimator.from_state(list(est.state()))  # codec may list it
    assert twin.state() == est.state()
    est.sample(7e-6)
    twin.sample(7e-6)
    assert twin.state() == est.state()
    assert twin.rto(MIN_RTO, MAX_RTO, ACK_TIMEOUT) == est.rto(
        MIN_RTO, MAX_RTO, ACK_TIMEOUT
    )


@given(
    flags=st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=25
    ),
    rtt=st.floats(1e-6, 1e-4),
)
@settings(max_examples=60, deadline=None)
def test_karn_rule_excludes_every_ambiguous_ack(flags, rtt):
    """Only acks of exactly-once transmissions reach the estimator: a
    retransmitted send has two copies in flight and a failover-re-armed
    one lost its launch time, so neither ack can be matched to a
    transmission."""
    _, tr = _transport(RecoveryConfig())
    clean = 0
    for retransmitted, rearmed in flags:
        s = _send(tr, now=0.0)
        ps = tr.pending[s.uid]
        if retransmitted:
            ps.retries = 1
        if rearmed:
            ps.sent_at = None  # what rearm_after_failover does
        clean += not (retransmitted or rearmed)
        tr.on_ack(s.uid, rtt)
    assert tr.report.rtt_samples == clean
    est = tr.rtt.get((0, 1))
    assert (est.samples if est is not None else 0) == clean


def test_failover_rearm_is_karn_ambiguous():
    """A send re-armed by failover lost its launch timestamp, so its
    eventual ack must never be sampled: the link stays cold and the
    next send still arms ``ACK_TIMEOUT``."""
    from repro.runtime.recovery import Checkpoint

    _, tr = _transport(RecoveryConfig())
    s = _send(tr)
    ck = Checkpoint(state=None, inbox=[], pending={s.uid: s})
    tr.rearm_after_failover({s.src}, {s.src: ck}, 1e-5)
    assert tr.pending[s.uid].sent_at is None
    assert tr.pending[s.uid].timeout == ACK_TIMEOUT  # re-armed cold
    tr.on_ack(s.uid, 2e-5)
    assert tr.report.rtt_samples == 0
    assert tr.pending == {} and (0, 1) not in tr.rtt
    assert tr.pending[_send(tr).uid].timeout == ACK_TIMEOUT


def test_nacked_send_is_karn_ambiguous():
    """A corrupted copy NACKed at 10 us and the retransmit acked at
    20 us: the ack spans the corrupt copy, the NACK and the retransmit,
    so it must not be sampled (it used to feed one 20 us sample)."""
    _, tr = _transport(RecoveryConfig())
    s = _send(tr, now=0.0)
    tr.on_nack(s.uid, 1e-5)
    tr.on_ack(s.uid, 2e-5)
    assert tr.report.rtt_samples == 0
    assert (0, 1) not in tr.rtt
    assert tr.pending[_send(tr).uid].timeout == ACK_TIMEOUT  # still cold


def test_first_send_on_a_cold_link_arms_ack_timeout():
    """Every reliable run has the estimator; before a link's first
    clean ack it is cold and a fresh send arms ``ACK_TIMEOUT``."""
    sim, tr = _transport(RecoveryConfig())
    s = _send(tr)
    assert tr.pending[s.uid].timeout == ACK_TIMEOUT
    assert (0, 1) not in tr.rtt
    timers = [ev for ev in sim._events if ev[2] == tr._k_timer]
    assert [ev[0] for ev in timers] == [ACK_TIMEOUT]


def test_warmed_estimator_arms_new_sends():
    _, tr = _transport(RecoveryConfig())
    s = _send(tr)
    tr.on_ack(s.uid, 5e-6)  # SRTT=5us, RTTVAR=2.5us -> RTO=MIN_RTO clamp
    expect = tr.rtt[(0, 1)].rto(MIN_RTO, MAX_RTO, ACK_TIMEOUT)
    s2 = _send(tr)
    assert tr.pending[s2.uid].timeout == expect
    assert expect == MIN_RTO  # 15us raw estimate clamps up to MIN_RTO


def test_send_after_one_clean_ack_arms_the_estimators_clamp():
    """One clean 30 us ack: SRTT=30us, RTTVAR=15us, so the next send
    arms the unclamped ``SRTT + RTO_K * RTTVAR`` = 90 us, not the cold
    120 us; a 5 ms sample clamps to ``MAX_RTO``."""
    _, tr = _transport(RecoveryConfig())
    s = _send(tr, now=0.0)
    tr.on_ack(s.uid, 30e-6)
    assert tr.report.rtt_samples == 1
    assert tr.pending[_send(tr).uid].timeout == 30e-6 + RTO_K * 15e-6
    _, tr = _transport(RecoveryConfig())
    s = _send(tr, now=0.0)
    tr.on_ack(s.uid, 5e-3)
    assert tr.pending[_send(tr).uid].timeout == MAX_RTO


def test_backoff_never_escalates_past_max_rto():
    """A cold link's whole timer schedule: the k-th retransmit re-arms
    ``min(ACK_TIMEOUT * BACKOFF**k, MAX_RTO)``, and the first expiry
    more than the horizon after the send gives up, naming it."""
    horizon = RecoveryConfig().watchdog_horizon
    _, tr = _transport(RecoveryConfig())
    s = _send(tr)
    ps = tr.pending[s.uid]
    assert ps.timeout == ACK_TIMEOUT
    now, k = 0.0, 0
    while now + ps.timeout <= horizon:
        now += ps.timeout
        tr.on_timer((s.uid, ps.attempt), now)
        k += 1
        assert ps.timeout == min(ACK_TIMEOUT * BACKOFF**k, MAX_RTO)
    assert ps.timeout == MAX_RTO  # the cap was reached, not just approached
    assert tr.report.retries == k == 7
    with pytest.raises(StallError) as ei:
        tr.on_timer((s.uid, ps.attempt), now + ps.timeout)
    rep = ei.value.report
    assert rep.now == now + MAX_RTO and rep.since == 0.0
    assert [(e.holder, e.waiter, e.retries) for e in rep.waiting] == [
        (str(s.src), str(s.dst), k)
    ]


def _give_up(sim, tr):
    """Drive a cut link's timers off the heap until its send gives up."""
    with pytest.raises(StallError) as ei:
        while sim:
            t, kind, data = sim.pop()
            assert kind == "timer"  # the cut black-holes every copy
            tr.on_timer(data, t)
    return ei.value.report


@given(r=st.floats(1e-7, 1e-2), t0=st.floats(0.0, 1e-3))
@settings(max_examples=60, deadline=None)
def test_a_cut_gives_up_at_one_age_on_warm_and_cold_links(r, t0):
    """The same never-healing cut gives up within one ``MAX_RTO`` of
    the same virtual time whatever the link's first RTO: one RTT
    sample ``r`` warms it anywhere from ``MIN_RTO`` to ``MAX_RTO``, a
    cold link starts at ``ACK_TIMEOUT``.  Counting retries instead gave
    up 30.2 ms after the send on a warm link and 55.2 ms on a cold one."""
    horizon = RecoveryConfig().watchdog_horizon
    ulp = 1e-12
    cut = FaultPlan(partitions=(LinkPartition(0, 1, 0.0, math.inf),))
    ends = {}
    for warm in (False, True):
        sim, tr = _transport(RecoveryConfig(), FaultInjector(cut))
        if warm:
            tr.rtt[(0, 1)] = est = RttEstimator()
            est.sample(r)
        _send(tr, now=t0)
        rep = _give_up(sim, tr)
        # ``ulp``: the schedule is a float sum, and a timer due exactly
        # at the horizon may land a rounding step either side of it.
        assert horizon < rep.now - t0 <= horizon + MAX_RTO + ulp
        assert rep.since == t0 and "never heals" in rep.lost[0].reason
        ends[warm] = rep.now
    assert abs(ends[True] - ends[False]) <= MAX_RTO + ulp


# -- config validation -----------------------------------------------------------


def test_config_validation():
    """The switches are bools: a truthy string or int would silently
    arm a mechanism the caller meant to describe, not enable."""
    off = RecoveryConfig()
    assert not off.membership and not off.demotion
    for name in ("membership", "demotion"):
        for bad in ("no", 1, None):
            with pytest.raises(ReproError, match=name):
                RecoveryConfig(**{name: bad})


def test_demotion_requires_resilient_programs():
    from tests.test_chaos import _setup

    machine, pset, solver = _setup()
    progs, _ = solver.build_programs(resilient=False)
    rt = DataDrivenRuntime(
        16, machine=machine,
        recovery=RecoveryConfig(demotion=True),
    )
    with pytest.raises(ReproError, match="resilient"):
        rt.run(progs, pset.patch_proc)


# -- integration: demotion is invisible to the numerics --------------------------


@pytest.mark.parametrize("kind,mode", [
    ("structured", "hybrid"), ("unstructured", "mpi_only"),
])
def test_adaptive_stack_is_bitwise_exact_under_chaos(kind, mode):
    """Demotion armed over the RTT-estimated timer, on a seeded random
    fault plan: the flux must still be bitwise-identical to the
    fault-free reference."""
    res = run_case(kind, mode, seed=5, demotion=True)
    assert res.ok and res.exact and not res.stalled, res.error


def test_demotion_cuts_makespan_on_a_slow_but_alive_rank():
    """The regime demotion is for: one rank 3x slow for the whole run,
    with no losses.  Retransmit timers never fire, so the timer alone
    changes nothing; demoting the rank moves its patches to healthy
    ranks and cuts the makespan, at bitwise-identical flux."""
    from tests.test_chaos import _reference_phi, _run

    plan = FaultPlan(stragglers=(StragglerWindow(1, 0.0, 5e-2, 3.0),))
    rto = RecoveryConfig()
    demote = RecoveryConfig(demotion=True)
    rep_rto, phi_rto = _run(plan, recovery=rto)
    rep_dem, phi_dem = _run(plan, recovery=demote)
    assert rep_rto.demotions == 0
    assert rep_dem.demotions == 1
    assert rep_dem.makespan < 0.8 * rep_rto.makespan
    np.testing.assert_array_equal(phi_dem, _reference_phi())
    np.testing.assert_array_equal(phi_rto, _reference_phi())


def test_demotion_run_equals_its_committed_straggler_row():
    """``RecoveryConfig(demotion=True)`` on the committed straggler plan
    (``benchmarks/bench_resilience.py``'s ``straggler_plan``)
    reproduces its ``demotion`` row of ``BENCH_resilience.json``
    exactly: the plan where demotion loses, unstructured-mpi_only."""
    rows = json.loads(
        (Path(__file__).parents[1] / "BENCH_resilience.json").read_text()
    )["rows"]
    row = next(
        r for r in rows
        if (r["scenario"], r["plan"], r["config"])
        == ("unstructured-mpi_only", "straggler", "demotion")
    )
    machine, cores, pset, solver = build_scenario("unstructured", "mpi_only")
    nprocs = machine.layout(cores, "mpi_only").nprocs
    hz = 1e-3
    plan = FaultPlan(
        stragglers=tuple(
            StragglerWindow(p, 0.05 * hz * (i + 1), 0.9 * hz, 4.0 + i)
            for i, p in enumerate((0, nprocs - 1))
        ),
        p_drop=0.06, seed=11,
    )
    progs, _ = solver.build_programs(resilient=True)
    rep = DataDrivenRuntime(
        cores, machine=machine, mode="mpi_only", faults=plan,
        recovery=RecoveryConfig(demotion=True),
    ).run(progs, pset.patch_proc)
    assert rep.makespan == row["makespan"]
    assert rep.retries == row["retries"]
    assert {k: getattr(rep, k) for k in row["counters"]} == row["counters"]
    assert row["counters"]["demotions"] == 1
