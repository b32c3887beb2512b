"""Adaptive-resilience tests: RTT estimation with Karn's rule, capped
adaptive RTO, hedging, speculation, backpressure, demotion.

Two tiers: Hypothesis properties pin the estimator and timer algebra
(the RTO clamp holds for *any* sample sequence; Karn's rule excludes
*every* ambiguous ack), and integration runs hold the whole adaptive
stack to the chaos oracle - flux bitwise-identical to the fault-free
reference, because adaptivity that changes a bit is a bug.  A final
neutrality test pins the opt-in contract: an all-off
:class:`AdaptiveConfig` must be event-for-event identical to no config
at all.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.chaos import run_case
from repro.core.stream import ProgramId, Stream
from repro.runtime import (
    AdaptiveConfig,
    DataDrivenRuntime,
    FaultPlan,
    Machine,
    RecoveryConfig,
    Router,
    RunReport,
    Simulator,
    StragglerWindow,
    Transport,
)
from repro.runtime.faults import (
    ACK_TIMEOUT, BACKOFF, MAX_RETRIES, MAX_RTO, MIN_RTO,
)
from repro.runtime.metrics import Breakdown
from repro.runtime.scheduler import _percentile
from repro.runtime.transport import RttEstimator


# -- harness --------------------------------------------------------------------


def _mini_router(nprocs=2):
    class _Prog:
        def __init__(self, patch):
            self.id = ProgramId(patch, 0)

    progs = [_Prog(p) for p in range(nprocs)]
    return Router(progs, np.arange(nprocs), nprocs)


def _transport(rcfg):
    machine = Machine(cores_per_proc=4)
    layout = machine.layout(8, "hybrid")  # 2 procs
    sim = Simulator(frozenset({"msg_arrive"}))
    report = RunReport(makespan=0.0, breakdown=Breakdown(), total_cores=8)
    tr = Transport(sim, _mini_router(), machine, layout, report, rcfg=rcfg)
    return sim, tr


def _send(tr, now=0.0):
    s = Stream(src=ProgramId(0, 0), dst=ProgramId(1, 0), nbytes=64)
    tr.send(s, s.src, 0, now, 0, 1)
    return s


ADAPTIVE_RTO = AdaptiveConfig(adaptive_rto=True)


# -- estimator properties --------------------------------------------------------


@given(samples=st.lists(st.floats(1e-7, 1e-2), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_rto_always_within_configured_bounds(samples):
    est = RttEstimator()
    for r in samples:
        est.sample(r)
        assert MIN_RTO <= est.rto(MIN_RTO, MAX_RTO) <= MAX_RTO
        # SRTT is a convex combination of the samples seen so far.
        assert min(samples) <= est.srtt <= max(samples)


def test_first_sample_seeds_rfc6298(rtt=4e-6):
    est = RttEstimator()
    est.sample(rtt)
    assert est.srtt == rtt
    assert est.rttvar == rtt / 2
    with pytest.raises(ReproError):
        RttEstimator().rto(0.0, 1.0)


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
    assert twin.rto(MIN_RTO, MAX_RTO) == est.rto(MIN_RTO, MAX_RTO)


@given(
    flags=st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=25
    ),
    rtt=st.floats(1e-6, 1e-4),
)
@settings(max_examples=60, deadline=None)
def test_karn_rule_excludes_every_ambiguous_ack(flags, rtt):
    """Only acks of exactly-once transmissions reach the estimator: a
    retransmitted or hedged send has two copies in flight, and its ack
    cannot be matched to either."""
    _, tr = _transport(RecoveryConfig(adaptive=ADAPTIVE_RTO))
    clean = 0
    for retransmitted, hedged in flags:
        s = _send(tr, now=0.0)
        ps = tr.pending[s.uid]
        if retransmitted:
            ps.retries = 1
        if hedged:
            ps.hedged = True
        clean += not (retransmitted or hedged)
        tr.on_ack(s.uid, rtt)
    assert tr.report.rtt_samples == clean
    est = tr.rtt.get((0, 1))
    assert (est.samples if est is not None else 0) == clean


def test_failover_rearm_is_karn_ambiguous():
    """A send re-armed by failover lost its launch timestamp, so its
    eventual ack must never be sampled."""
    _, tr = _transport(RecoveryConfig(adaptive=ADAPTIVE_RTO))
    s = _send(tr)
    tr.pending[s.uid].sent_at = None  # what rearm_after_failover does
    tr.on_ack(s.uid, 5e-6)
    assert tr.report.rtt_samples == 0


def test_warmed_estimator_arms_new_sends():
    _, tr = _transport(RecoveryConfig(adaptive=ADAPTIVE_RTO))
    s = _send(tr)
    tr.on_ack(s.uid, 5e-6)  # SRTT=5us, RTTVAR=2.5us -> RTO=MIN_RTO clamp
    expect = tr.rtt[(0, 1)].rto(MIN_RTO, MAX_RTO)
    s2 = _send(tr)
    assert tr.pending[s2.uid].timeout == expect
    assert expect == MIN_RTO  # 15us raw estimate clamps up to MIN_RTO


def test_backoff_never_escalates_past_max_rto():
    """The fixed timer's whole schedule: MAX_RETRIES retransmits, the
    k-th re-arming ``min(ACK_TIMEOUT * BACKOFF**k, MAX_RTO)``, then the
    next expiry declares the message undeliverable, naming it."""
    _, tr = _transport(RecoveryConfig())
    s = _send(tr)
    ps = tr.pending[s.uid]
    assert ps.timeout == ACK_TIMEOUT
    now = 0.0
    for k in range(1, MAX_RETRIES + 1):
        now += ps.timeout
        tr.on_timer((s.uid, ps.attempt), now)
        assert ps.timeout == min(ACK_TIMEOUT * BACKOFF**k, MAX_RTO)
    assert ps.timeout == MAX_RTO  # the cap was reached, not just approached
    assert tr.report.retries == MAX_RETRIES
    with pytest.raises(ReproError, match=re.escape(
        f"message {s.uid!r} undeliverable after {MAX_RETRIES} retries"
    )):
        tr.on_timer((s.uid, ps.attempt), now + ps.timeout)


# -- config validation -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ReproError, match="inbox_credits"):
        AdaptiveConfig(inbox_credits=0)
    on = AdaptiveConfig.all_on(inbox_credits=4)
    assert on.adaptive_rto and on.hedging and on.speculation
    assert on.backpressure and on.demotion and on.inbox_credits == 4


def test_demotion_requires_resilient_programs():
    from tests.test_chaos import _setup

    machine, pset, solver = _setup()
    progs, _ = solver.build_programs(resilient=False)
    rt = DataDrivenRuntime(
        16, machine=machine,
        recovery=RecoveryConfig(adaptive=AdaptiveConfig(demotion=True)),
    )
    with pytest.raises(ReproError, match="resilient"):
        rt.run(progs, pset.patch_proc)


def test_nearest_rank_percentile():
    assert _percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert _percentile([3.0, 1.0, 2.0], 100.0) == 3.0
    assert _percentile([5.0], 90.0) == 5.0


# -- integration: the adaptive stack is invisible to the numerics ----------------


@pytest.mark.parametrize("kind,mode", [
    ("structured", "hybrid"), ("unstructured", "mpi_only"),
])
def test_adaptive_stack_is_bitwise_exact_under_chaos(kind, mode):
    """Speculation, hedging, adaptive RTO, backpressure and demotion
    all armed, on a seeded random fault plan: the flux must still be
    bitwise-identical to the fault-free reference."""
    acfg = AdaptiveConfig.all_on(inbox_credits=2)
    res = run_case(kind, mode, seed=5, adaptive=acfg)
    assert res.ok and res.exact and not res.stalled, res.error


def test_speculation_fires_and_wins_on_stragglers():
    from tests.test_chaos import _reference_phi, _run

    plan = FaultPlan(
        stragglers=(StragglerWindow(0, 0.0, 9e-4, 5.0),
                    StragglerWindow(3, 1e-4, 9e-4, 4.0)),
        p_drop=0.05, seed=7,
    )
    acfg = AdaptiveConfig(adaptive_rto=True, hedging=True, speculation=True)
    rep, phi = _run(plan, recovery=RecoveryConfig(adaptive=acfg))
    a = rep.adaptive_summary()
    assert a["rtt_samples"] > 0
    assert a["hedged_sends"] > 0
    assert a["speculative_launches"] >= a["speculative_wins"] > 0
    np.testing.assert_array_equal(phi, _reference_phi())


def test_backpressure_stalls_are_booked():
    from tests.test_chaos import _reference_phi, _run

    acfg = AdaptiveConfig(backpressure=True, inbox_credits=1)
    rep, phi = _run(
        FaultPlan(p_drop=0.02, seed=3),
        recovery=RecoveryConfig(adaptive=acfg),
    )
    a = rep.adaptive_summary()
    assert a["backpressure_stalls"] > 0
    assert a["backpressure_time"] > 0  # visible in the breakdown stack
    np.testing.assert_array_equal(phi, _reference_phi())


def test_parked_sends_drain_fifo_per_destination():
    """Flow control must be fair: when arrivals free inbox credits, the
    parked backlog drains strictly oldest-first, even while newer sends
    keep arriving and parking in between the receives."""
    acfg = AdaptiveConfig(backpressure=True, inbox_credits=1)
    sim, tr = _transport(RecoveryConfig(adaptive=acfg))
    # One credit: the first send launches, the next two park in order.
    a, b, c = (_send(tr, now=i * 1e-6) for i in range(3))
    assert tr.pending[a.uid].parked is None
    assert tr._parked == [b.uid, c.uid]
    # A verified arrival frees the credit and launches the *oldest*
    # parked send only.
    assert tr.receive(a, 1, 3e-6)
    assert tr.pending[b.uid].parked is None
    assert tr.pending[c.uid].parked is not None
    # Credit churn: fresh sends must queue behind the existing backlog,
    # never jump it.
    d, e = (_send(tr, now=4e-6 + i * 1e-6) for i in range(2))
    assert tr._parked == [c.uid, d.uid, e.uid]
    for launched, arriving in ((c, b), (d, c), (e, d)):
        assert tr.receive(arriving, 1, 6e-6)
        assert tr.pending[launched.uid].parked is None, (
            "drain skipped the head of the parked queue"
        )
    assert tr._parked == []
    assert tr.report.backpressure_stalls == 4


def test_all_off_config_is_event_identical_to_none():
    """The opt-in contract: AdaptiveConfig() (everything off) must not
    perturb a single event - same makespan, same flux, no adaptive
    counters - versus running with no adaptive config at all."""
    from tests.test_chaos import _reference_phi, _run

    plan = FaultPlan(p_drop=0.05, p_duplicate=0.03, seed=11)
    rep_none, phi_none = _run(plan)
    rep_off, phi_off = _run(
        plan, recovery=RecoveryConfig(adaptive=AdaptiveConfig())
    )
    assert rep_off.makespan == rep_none.makespan
    assert rep_off.events == rep_none.events
    assert all(v == 0 for v in rep_off.adaptive_summary().values())
    np.testing.assert_array_equal(phi_off, phi_none)
    np.testing.assert_array_equal(phi_off, _reference_phi())
