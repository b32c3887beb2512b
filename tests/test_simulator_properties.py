"""Property tests: the slab event heap is observationally identical
to a plain ``heapq`` of ``(t, seq, kind, data)`` tuples.

The simulator interns kinds to dense ids and keeps per-kind counters
beside its heap; neither may change the reference semantics - pop
strictly by ``(t, seq)``, sequence numbers handed out one per push (or
per :meth:`next_seq` consumer) - so randomized schedules with
timestamp ties, interleaved external sequence consumers, and pushes at
exactly the time being popped must pop in exactly the reference
order, payload for payload, and ties in push order.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.simulator import Simulator

# Small delta pool so schedules collide on identical timestamps often;
# 0.0 lands a push at exactly the time just popped.
DELTAS = (0.0, 0.25, 1.0, 3.0)
KINDS = ("advance", "aux")  # progress / non-progress
PROGRESS = frozenset(("advance",))


class RefHeap:
    """The reference: one heap of (t, seq, kind, data) 4-tuples."""

    def __init__(self):
        self.h = []
        self.seq = 0

    def push(self, t, kind, data):
        self.seq += 1
        heapq.heappush(self.h, (t, self.seq, kind, data))

    def next_seq(self):
        self.seq += 1
        return self.seq


# One push op: (time delta from "now", kind, burn-a-seq-first flag).
# The flag models external queues sharing the tie-break sequence via
# next_seq between pushes - renumbering must never reorder.
_op = st.tuples(
    st.sampled_from(DELTAS), st.sampled_from(KINDS), st.booleans()
)


@st.composite
def schedules(draw):
    pre = draw(st.lists(_op, min_size=1, max_size=12))
    rounds = draw(st.lists(st.lists(_op, max_size=4), max_size=10))
    return pre, rounds


def _push_both(sim, ref, now, ops, start):
    n = start
    for delta, kind, burn in ops:
        if burn:
            sim.next_seq()
            ref.next_seq()
        sim.push(now + delta, kind, n)
        ref.push(now + delta, kind, n)
        n += 1
    return n


@given(sched=schedules())
@settings(max_examples=80, deadline=None)
def test_single_pop_matches_reference(sched):
    pre, rounds = sched
    sim = Simulator(progress_kinds=PROGRESS)
    ref = RefHeap()
    n = _push_both(sim, ref, 0.0, pre, 0)
    rit = iter(rounds)
    while sim:
        t, kind, data = sim.pop()
        rt, _, rkind, rdata = heapq.heappop(ref.h)
        assert (t, kind, data) == (rt, rkind, rdata)
        # Pushes between pops happen at or after the current time.
        n = _push_both(sim, ref, t, next(rit, []), n)
    assert not ref.h
    assert sim.live == 0


@given(sched=schedules())
@settings(max_examples=80, deadline=None)
def test_tied_pops_come_out_in_push_order(sched):
    """Pops come out in ``(t, push order)``: ties at one timestamp -
    pushes landing at exactly the time being popped included - leave
    in the order they were pushed, whatever sequence numbers external
    queues burned in between."""
    pre, rounds = sched
    sim = Simulator(progress_kinds=PROGRESS)

    def push(now, ops, n):
        for delta, kind, burn in ops:
            if burn:
                sim.next_seq()  # an external queue's tie-break
            sim.push(now + delta, kind, n)  # data is the push index
            n += 1
        return n

    n = push(0.0, pre, 0)
    rit = iter(rounds)
    order = []
    while sim:
        t, _, data = sim.pop()
        order.append((t, data))
        # A 0.0 delta lands at exactly ``t``, behind every queued tie.
        n = push(t, next(rit, []), n)
    assert order == sorted(order)
    assert len(order) == n
    assert sim.live == 0
    assert sum(sim.event_counts().values()) == n


@given(sched=schedules())
@settings(max_examples=40, deadline=None)
def test_slot_recycling_preserves_payloads(sched):
    """Popping then pushing reuses slab slots; payloads must never
    cross-contaminate between recycled slots."""
    pre, rounds = sched
    sim = Simulator(progress_kinds=PROGRESS)
    ref = RefHeap()
    n = _push_both(sim, ref, 0.0, pre, 0)
    rit = iter(rounds)
    seen_sim, seen_ref = [], []
    while sim:
        t, kind, data = sim.pop()
        seen_sim.append(data)
        seen_ref.append(heapq.heappop(ref.h)[3])
        n = _push_both(sim, ref, t, next(rit, []), n)
    # Every payload delivered exactly once, in the same order.
    assert seen_sim == seen_ref
    assert sorted(seen_sim) == list(range(n))
