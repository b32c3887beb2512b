"""Property tests for the durability layer (snapshot/restore identity).

The layers of the contract, each under randomized inputs:

* the codec is a faithful involution - ``decode(encode(x)) == x`` and
  the byte stream is stable across a round trip (no pickle memo ids,
  no hash-order leakage);
* packed lists are an encoding, not a type: every list decodes to the
  Python types it held (``bool`` stays ``bool``, ``-0.0`` and ``nan``
  keep their bits), whichever of the packed or per-element forms it
  took, and version-1 payloads still decode;
* a patch-program ``state_dict()`` taken after *any* prefix of
  ``input``/``compute`` steps is exact, reusable and alias-free;
* a simulator snapshot taken between events at *any* cut point loads
  into a fresh simulator that pops the exact remaining sequence the
  never-snapshotted reference pops - tied timestamps, shared tie-break
  sequences, recycled slab slots, and pushes at the time just popped
  included;
* a full runtime kill-resume at a random cut is bitwise-identical to
  the uninterrupted run (the property form of the golden-matrix
  campaign in ``test_durability``).
"""

import random
import struct
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stream import ProgramId, Stream
from repro.persist import decode, encode, frame, unframe
from repro.persist.killer import kill_and_resume
from repro.runtime.simulator import Simulator

# -- codec round-trip ------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # covers the big-int (>64-bit) path
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.sets(st.integers(), max_size=6),
        st.frozensets(st.integers(), max_size=6),
    ),
    max_leaves=25,
)


@given(x=_values)
@settings(max_examples=150, deadline=None)
def test_codec_roundtrip_identity(x):
    assert decode(encode(x)) == x


@given(x=_values)
@settings(max_examples=150, deadline=None)
def test_codec_byte_stream_is_stable(x):
    """Encoding is a pure function of the value: a decoded copy
    re-encodes to the identical bytes (set order is canonicalized)."""
    data = encode(x)
    assert encode(decode(data)) == data


@given(x=_values)
@settings(max_examples=60, deadline=None)
def test_frame_roundtrip(x):
    version, payload = unframe(frame(encode(x)))
    assert decode(payload) == x


# -- packed lists: an encoding, not a type ---------------------------------------

_list_items = st.one_of(
    st.booleans(),
    st.integers(),  # beyond i64 included: those lists stay per-element
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.floats(allow_nan=True),
    st.sampled_from((-0.0, float("nan"), float("inf"), 1 << 63, -(1 << 63))),
)


def _faithful(x):
    """Type- and bit-exact image of a list (``==`` cannot tell ``True``
    from ``1``, ``-0.0`` from ``0.0``, or compare ``nan`` at all)."""
    return [
        (type(v), struct.pack(">d", v) if type(v) is float else v) for v in x
    ]


@given(x=st.one_of(
    st.lists(_list_items, max_size=12),
    st.lists(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
             max_size=40),
    st.lists(st.floats(allow_nan=True), max_size=40),
))
@settings(max_examples=200, deadline=None)
def test_lists_roundtrip_type_faithfully_and_byte_stably(x):
    data = encode(x)
    back = decode(data)
    assert type(back) is list and _faithful(back) == _faithful(x)
    assert encode(back) == data


def test_packed_lists_take_one_record_and_odd_lists_keep_theirs():
    assert encode([1, -2, 3]) == b"q" + struct.pack(">Iqqq", 3, 1, -2, 3)
    assert encode([0.5, -0.0]) == b"g" + struct.pack(">Idd", 2, 0.5, -0.0)
    # Everything else is written exactly as version 1 wrote it.
    assert encode([]) == b"l" + struct.pack(">I", 0)
    assert encode([True, False])[:1] == b"l"
    assert encode([1, 2.0])[:1] == b"l"
    assert encode([1, 1 << 63])[:1] == b"l"
    assert encode((1, 2))[:1] == b"t"  # tuples are never packed


def test_version_1_payloads_still_decode():
    """What a v1 writer produced (WAL records on disk): per-element int
    and float lists, and the nine-field ``Stream`` record."""
    def i64(v):
        return b"i" + struct.pack(">q", v)

    def pid(p):
        return b"P" + i64(p) + i64(0)

    assert decode(b"l" + struct.pack(">I", 2) + i64(7) + i64(-1)) == [7, -1]
    assert decode(
        b"l" + struct.pack(">I", 1) + b"f" + struct.pack(">d", 2.5)
    ) == [2.5]
    v1_stream = (b"M" + pid(0) + pid(1) + b"N" + i64(3) + i64(24)
                 + i64(5) + i64(1) + b"N" + i64(-1))
    assert decode(v1_stream) == Stream(
        ProgramId(0, 0), ProgramId(1, 0), None, 3, 24, seq=5, epoch=1
    )
    version, payload = unframe(frame(v1_stream, version=1))
    assert version == 1 and decode(payload).inc is None


# -- patch-program capture: exact, reusable, alias-free --------------------------


_SOLVERS: dict = {}  # mesh family -> solver (topology built once)


def _program_set(family, grain, resilient):
    """A factory of identical fresh program sets over one small mesh."""
    from repro import PatchSet, cube_structured, disk_tri_mesh
    from tests.conftest import make_solver

    if family not in _SOLVERS:
        if family == "structured":
            pset = PatchSet.from_structured(
                cube_structured(4, length=2.0), (2, 2, 2), nprocs=2)
        else:
            pset = PatchSet.from_unstructured(disk_tri_mesh(4), 8, nprocs=2)
        _SOLVERS[family] = make_solver(pset)

    def build():
        progs, _ = _SOLVERS[family].build_programs(
            compute=False, grain=grain, resilient=resilient,
            record_clusters=True)
        for p in progs:
            p.dynamic_priority = True  # priority() reads the rebuilt keys
        return progs

    return build


def _drive(progs, pending, rng, steps):
    """Alg. 1 by hand: pick a runnable program, feed its inbox, compute,
    route its emissions; the trace records everything a run exposes."""
    index = {p.id: i for i, p in enumerate(progs)}
    trace = []
    while steps:
        runnable = [
            i for i, p in enumerate(progs)
            if pending[i] or not p.vote_to_halt()
        ]
        if not runnable:
            break
        steps -= 1
        i = rng.choice(runnable)
        p = progs[i]
        before = p.priority()
        box, pending[i] = pending[i], []
        for s in box:
            p.input(s)
        if box and p.resilient_input and rng.random() < 0.3:
            # A retransmit lands at the next run: idempotent input must
            # discard it, on either side of a restore.
            pending[i].append(rng.choice(box))
        ran = len(p.clusters)
        p.compute()
        outs = p.drain_outputs()
        for s in outs:
            pending[index[s.dst]].append(s)
        trace.append((
            i, before, p.priority(), p.clusters[ran:],
            [(s.dst, s.payload, s.items, s.nbytes) for s in outs],
            p.run_counters(), p.remaining_workload(),
        ))
    return trace


@given(
    family=st.sampled_from(("structured", "unstructured")),
    grain=st.sampled_from((1, 3, 64)),
    resilient=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    cut=st.integers(min_value=0, max_value=120),
)
@settings(max_examples=40, deadline=None)
def test_program_capture_is_exact_reusable_and_alias_free(
    family, grain, resilient, seed, cut
):
    build = _program_set(family, grain, resilient)
    progs = build()
    for p in progs:
        p.init()
    rng = random.Random(seed)
    pending = [[] for _ in progs]
    _drive(progs, pending, rng, cut)
    snaps = [p.state_dict() for p in progs]
    frozen = encode(snaps)
    at_cut = ([list(b) for b in pending], rng.getstate())
    want = _drive(progs, pending, rng, -1)  # ... and the originals move on
    assert all(p.remaining_workload() == 0 for p in progs)
    # Twice from one snapshot (a second failover), on fresh twins: once
    # through the codec, once straight from the captured dicts.
    for source in (decode(frozen), snaps):
        twins = build()
        for t, d in zip(twins, source):
            t.load_state_dict(d)
        rng2 = random.Random()
        rng2.setstate(at_cut[1])
        got = _drive(twins, [list(b) for b in at_cut[0]], rng2, -1)
        assert got == want
    assert encode(snaps) == frozen  # nobody wrote through the snapshot


def test_spent_program_state_is_the_empty_dict_and_restores_halted():
    build = _program_set("structured", 64, False)
    progs = build()
    for p in progs:
        p.init()
    _drive(progs, [[] for _ in progs], random.Random(0), -1)
    twins = build()
    for p, t in zip(progs, twins):
        p.clusters = []  # recorded clusters are state too; drop them
        assert p.state_dict() == {}
        t.load_state_dict({})
        assert t.vote_to_halt() and t.remaining_workload() == 0
        assert t._counts == p._counts and t.priority() == p.priority()


# -- simulator snapshot/restore at random cut points -----------------------------

# A small delta pool makes timestamp ties (and pushes at the time just
# popped, at delta 0.0) common rather than exceptional.
DELTAS = (0.0, 0.25, 1.0, 3.0)
KINDS = ("advance", "aux")
PROGRESS = frozenset(("advance",))

_op = st.tuples(st.sampled_from(DELTAS), st.sampled_from(KINDS), st.booleans())


@st.composite
def _schedules(draw):
    pre = draw(st.lists(_op, min_size=2, max_size=14))
    cut = draw(st.integers(min_value=0, max_value=len(pre)))
    rounds = draw(st.lists(st.lists(_op, max_size=4), max_size=8))
    return pre, cut, rounds


def _push(sim, now, ops, start):
    n = start
    for delta, kind, burn in ops:
        if burn:
            sim.next_seq()  # external queues share the tie-break seq
        sim.push(now + delta, kind, n)
        n += 1
    return n


def _drain(sim, rounds):
    """Pop everything, pushing each round's ops mid-drain; returns the
    observed (t, kind, data) stream."""
    out = []
    rit = iter(rounds)
    while sim:
        t, kind, data = sim.pop()
        out.append((t, kind, data))
        ops = next(rit, None)
        if ops:
            _push(sim, t, ops, 1000 + len(out) * 100)
    return out


@given(sched=_schedules())
@settings(max_examples=80, deadline=None)
def test_simulator_restore_pops_identically(sched):
    """Cut a random schedule at a random point, round-trip the state
    through the codec, and finish on a fresh simulator: the remaining
    pop stream and every public counter must match the reference."""
    pre, cut, rounds = sched
    ref = Simulator(progress_kinds=PROGRESS)
    n = _push(ref, 0.0, pre, 0)
    for _ in range(min(cut, len(ref))):
        ref.pop()
    state = decode(encode(ref.state_dict()))
    restored = Simulator(progress_kinds=PROGRESS)
    restored.load_state_dict(state)
    assert len(restored) == len(ref)
    got = _drain(restored, rounds)
    want = _drain(ref, rounds)
    assert got == want
    for attr in ("live", "makespan", "peak_heap"):
        assert getattr(restored, attr) == getattr(ref, attr)
    assert restored.event_counts() == ref.event_counts()
    assert restored.next_seq() == ref.next_seq()


@given(sched=_schedules(), joins=st.lists(st.sampled_from(KINDS), max_size=3))
@settings(max_examples=60, deadline=None)
def test_tied_pops_after_restore_come_out_in_push_order(sched, joins):
    """After a restore, pushes at exactly the time just popped queue
    behind every restored tie, and everything pops in ``(t, push
    order)``, as on the never-snapshotted simulator."""
    pre, cut, _rounds = sched
    ref = Simulator(progress_kinds=PROGRESS)
    _push(ref, 0.0, pre, 0)
    for _ in range(min(cut, max(0, len(ref) - 1))):
        ref.pop()
    restored = Simulator(progress_kinds=PROGRESS)
    restored.load_state_dict(decode(encode(ref.state_dict())))

    def pop_with_joins(sim):
        out = [sim.pop()]
        t0 = out[0][0]
        for j, kind in enumerate(joins):
            sim.push(t0, kind, 9000 + j)  # same time, later push
        while sim:
            out.append(sim.pop())
        return out

    got = pop_with_joins(restored)
    assert got == pop_with_joins(ref)
    # Data are push indices: ``pre`` pushed 0.., the joins 9000.. after.
    order = [(t, data) for t, _, data in got]
    assert order == sorted(order)


# -- full-runtime random-cut resume (property form) ------------------------------


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_runtime_random_cut_resume_is_exact(data):
    from tests.test_durability import _factory, _fingerprint, _reference

    cell = "structured-hybrid-clean"
    ref_fp, events = _reference(cell)
    kill_at = data.draw(
        st.integers(min_value=1, max_value=events - 1), label="kill_at"
    )
    every = data.draw(st.sampled_from((37, 150, 400)), label="every")
    f = _factory(cell)
    with tempfile.TemporaryDirectory() as d:
        rep, _mgr, killed = kill_and_resume(
            f, kill_at=kill_at, every=every, workdir=d
        )
    assert killed
    assert _fingerprint(f, rep) == ref_fp
