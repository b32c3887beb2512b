"""Adaptive-resilience tests: RTT estimation with Karn's rule, capped
adaptive RTO, and degraded-mode demotion.

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
    retransmitted send has two copies in flight and a failover-re-armed
    one lost its launch time, so neither ack can be matched to a
    transmission."""
    _, tr = _transport(RecoveryConfig(adaptive=ADAPTIVE_RTO))
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
    eventual ack must never be sampled."""
    _, tr = _transport(RecoveryConfig(adaptive=ADAPTIVE_RTO))
    s = _send(tr)
    tr.pending[s.uid].sent_at = None  # what rearm_after_failover does
    tr.on_ack(s.uid, 5e-6)
    assert tr.report.rtt_samples == 0


def test_nacked_send_is_karn_ambiguous():
    """A corrupted copy NACKed at 10 us and the retransmit acked at
    20 us: the ack spans the corrupt copy, the NACK and the retransmit,
    so it must not be sampled (it used to feed one 20 us sample)."""
    _, tr = _transport(RecoveryConfig(adaptive=ADAPTIVE_RTO))
    s = _send(tr, now=0.0)
    tr.on_nack(s.uid, 1e-5)
    tr.on_ack(s.uid, 2e-5)
    assert tr.report.rtt_samples == 0
    assert (0, 1) not in tr.rtt


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
    """The switches are bools: a truthy string or int would silently
    arm a mechanism the caller meant to describe, not enable."""
    off = AdaptiveConfig()
    assert not off.adaptive_rto and not off.demotion
    for name in ("adaptive_rto", "demotion"):
        for bad in ("no", 1, None):
            with pytest.raises(ReproError, match=name):
                AdaptiveConfig(**{name: bad})


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


# -- integration: the adaptive stack is invisible to the numerics ----------------


@pytest.mark.parametrize("kind,mode", [
    ("structured", "hybrid"), ("unstructured", "mpi_only"),
])
def test_adaptive_stack_is_bitwise_exact_under_chaos(kind, mode):
    """Adaptive RTO and demotion both armed, on a seeded random fault
    plan: the flux must still be bitwise-identical to the fault-free
    reference."""
    acfg = AdaptiveConfig(adaptive_rto=True, demotion=True)
    res = run_case(kind, mode, seed=5, adaptive=acfg)
    assert res.ok and res.exact and not res.stalled, res.error


def test_demotion_cuts_makespan_on_a_slow_but_alive_rank():
    """The regime demotion is for: one rank 3x slow for the whole run,
    with no losses.  Retransmit timers never fire, so adaptive RTO
    alone changes nothing; demoting the rank moves its patches to
    healthy ranks and cuts the makespan, at bitwise-identical flux."""
    from tests.test_chaos import _reference_phi, _run

    plan = FaultPlan(stragglers=(StragglerWindow(1, 0.0, 5e-2, 3.0),))
    rto = RecoveryConfig(adaptive=ADAPTIVE_RTO)
    demote = RecoveryConfig(
        adaptive=AdaptiveConfig(adaptive_rto=True, demotion=True)
    )
    rep_rto, phi_rto = _run(plan, recovery=rto)
    rep_dem, phi_dem = _run(plan, recovery=demote)
    assert rep_rto.demotions == 0
    assert rep_dem.demotions == 1
    assert rep_dem.makespan < 0.8 * rep_rto.makespan
    np.testing.assert_array_equal(phi_dem, _reference_phi())
    np.testing.assert_array_equal(phi_rto, _reference_phi())


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
