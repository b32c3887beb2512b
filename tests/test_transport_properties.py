"""Property tests for the transport ack/timer algebra (Hypothesis).

Where :mod:`tests.test_adaptive` pins the estimator *math* (RTO clamp,
RFC 6298 seeding) by setting Karn flags directly, these properties
drive the actual control-plane handlers - :meth:`Transport.on_ack`
and :meth:`Transport.on_timer` - with adversarial event streams:
duplicated acks, acks reordered against their own retransmit timers,
stale timers arriving after the ack, and arbitrary interleavings
across messages.  The invariant under every ordering is the same:
exactly the unambiguous acks (first ack of a never-retransmitted send)
feed the estimator, and a stale control event is a no-op, never a
crash or a double count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import AdaptiveConfig, RecoveryConfig
from tests.test_adaptive import _send, _transport

ADAPTIVE_RTO = AdaptiveConfig(adaptive_rto=True)


def _tr():
    _, tr = _transport(RecoveryConfig(adaptive=ADAPTIVE_RTO))
    return tr


# -- duplicated and stale control events -----------------------------------------


@given(dups=st.integers(1, 6), rtt=st.floats(1e-6, 1e-4))
@settings(max_examples=50, deadline=None)
def test_duplicated_acks_sample_exactly_once(dups, rtt):
    """A wire-duplicated ack pops the pending entry once; every further
    copy finds nothing and must neither re-sample nor raise."""
    tr = _tr()
    s = _send(tr, now=0.0)
    for _ in range(dups):
        tr.on_ack(s.uid, rtt)
    assert tr.report.rtt_samples == 1
    assert tr.rtt[(0, 1)].samples == 1


@given(rtt=st.floats(1e-6, 1e-4), lateness=st.floats(1e-6, 1e-2))
@settings(max_examples=50, deadline=None)
def test_stale_timer_after_ack_is_inert(rtt, lateness):
    """Ack first, timer later (the reordering the attempt counter
    exists for): the expired timer is lazily cancelled - no timeout
    and no retry is booked."""
    tr = _tr()
    s = _send(tr, now=0.0)
    ps = tr.pending[s.uid]
    attempt = ps.attempt
    tr.on_ack(s.uid, rtt)
    tr.on_timer((s.uid, attempt), rtt + lateness)
    assert tr.report.timeouts == 0
    assert tr.report.retries == 0
    assert tr.report.rtt_samples == 1


def test_superseded_attempt_timer_is_inert():
    """A timer from attempt N arriving after the retransmit bumped the
    send to attempt N+1 is cancelled by the attempt mismatch."""
    tr = _tr()
    s = _send(tr, now=0.0)
    ps = tr.pending[s.uid]
    old = ps.attempt
    tr.on_timer((s.uid, old), 1e-4)  # real expiry: retransmits
    assert ps.attempt == old + 1
    tr.on_timer((s.uid, old), 2e-4)  # stale duplicate of the same timer
    assert tr.report.timeouts == 1
    assert tr.report.retries == 1


# -- Karn's rule through the handlers --------------------------------------------


@given(
    plans=st.lists(
        st.lists(st.sampled_from(["timer", "dup_ack"]), max_size=3),
        min_size=1,
        max_size=12,
    ),
    rtt=st.floats(1e-6, 1e-4),
)
@settings(max_examples=80, deadline=None)
def test_interleaved_streams_sample_only_unambiguous_acks(plans, rtt):
    """For every message, run an arbitrary prefix of timer expiries and
    duplicated acks before the ack itself.  However the copies
    interleave, the estimator sees exactly the messages whose ack was
    unambiguous (no retransmission)."""
    tr = _tr()
    clean = 0
    for i, prefix in enumerate(plans):
        t0 = i * 1e-3  # separate each message's timeline
        s = _send(tr, now=t0)
        ps = tr.pending[s.uid]
        for ev in prefix:
            if ev == "timer":
                tr.on_timer((s.uid, ps.attempt), t0 + rtt / 2)
            else:  # premature duplicate ack: consumes the send
                tr.on_ack(s.uid, t0 + rtt)
        if ps.retries == 0:
            clean += 1
        tr.on_ack(s.uid, t0 + rtt)  # duplicate if a dup_ack already hit
    assert tr.report.rtt_samples == clean
    est = tr.rtt.get((0, 1))
    assert (est.samples if est is not None else 0) == clean


@given(
    n=st.integers(2, 10),
    rtt=st.floats(1e-6, 1e-4),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_ack_order_across_messages_never_changes_sample_count(n, rtt, data):
    """Acks reordered *across* messages (any permutation of n clean
    sends) always yield exactly n samples: sampling is per-message
    state, not arrival-order state."""
    tr = _tr()
    uids = []
    for i in range(n):
        s = _send(tr, now=i * 1e-5)
        uids.append((s.uid, i * 1e-5))
    order = data.draw(st.permutations(range(n)))
    for j in order:
        uid, t0 = uids[j]
        tr.on_ack(uid, t0 + rtt)
    assert tr.report.rtt_samples == n
    assert tr.rtt[(0, 1)].samples == n


# -- estimator stability under a steady link -------------------------------------


@given(r=st.floats(1e-6, 1e-3), n=st.integers(2, 30))
@settings(max_examples=60, deadline=None)
def test_constant_rtt_stream_converges_monotonically(r, n):
    """A steady link must never destabilise the timer: with identical
    samples SRTT stays pinned at the sample and the RTO sequence is
    nonincreasing (RTTVAR only decays)."""
    from repro.runtime.transport import RttEstimator

    est = RttEstimator()
    prev = None
    for _ in range(n):
        est.sample(r)
        assert est.srtt == r
        rto = est.rto(0.0, float("inf"))
        if prev is not None:
            assert rto <= prev
        prev = rto
