"""Tests for the patch-centric data-driven abstraction (repro.core)."""

import ast
from pathlib import Path

import pytest

import repro

from repro._util import ReproError
from repro.core import (
    PatchProgram,
    ProgramId,
    ProgramState,
    SerialEngine,
    Stream,
    WorkloadTracker,
)
from repro.core.termination import consensus_hops


class Relay(PatchProgram):
    """Forwards a token along a ring/chain; used to probe Alg. 1 semantics."""

    def __init__(self, patch, nxt=None, hops=0):
        super().__init__(patch, "relay")
        self.nxt = nxt
        self.hops = hops  # tokens this node should emit at init
        self.received = []
        self._out = []

    def init(self):
        for _ in range(self.hops):
            self._emit(0)

    def _emit(self, value):
        if self.nxt is not None:
            self._out.append(
                Stream(
                    self.id,
                    ProgramId(self.nxt, "relay"),
                    payload=value,
                    items=1,
                    nbytes=8,
                )
            )

    def input(self, s):
        self.received.append(s.payload)
        self._pending = s.payload

    def compute(self):
        while self.received and self.nxt is not None:
            v = self.received[-1]
            if v < 20:  # bounded forwarding
                self._emit(v + 1)
            self.received.pop()

    def output(self):
        return self._out.pop(0) if self._out else None

    def vote_to_halt(self):
        return True


class TestStream:
    def test_program_id_ordering_and_repr(self):
        a = ProgramId(1, 0)
        b = ProgramId(1, 1)
        assert a < b
        assert repr(a) == "(1,0)"

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            Stream(ProgramId(0, 0), ProgramId(1, 0), items=-1)

    def test_program_id_hashable(self):
        assert len({ProgramId(0, "a"), ProgramId(0, "a"), ProgramId(1, "a")}) == 2


class TestSerialEngine:
    def test_chain_forwarding(self):
        eng = SerialEngine()
        progs = [Relay(i, nxt=i + 1 if i < 4 else None) for i in range(5)]
        progs[0].hops = 1
        for p in progs:
            eng.add_program(p)
        stats = eng.run()
        # Token visits every node once.
        assert stats.streams == 4
        assert all(
            eng.state(p.id) is ProgramState.INACTIVE for p in progs
        )

    def test_duplicate_program_rejected(self):
        eng = SerialEngine()
        eng.add_program(Relay(0))
        with pytest.raises(ReproError):
            eng.add_program(Relay(0))

    def test_stream_to_unknown_program_rejected(self):
        eng = SerialEngine()
        eng.add_program(Relay(0, nxt=99))
        eng.st.progs[0].hops = 1
        with pytest.raises(ReproError):
            eng.run()

    def test_wrong_src_rejected(self):
        class Liar(Relay):
            def init(self):
                self._out.append(
                    Stream(ProgramId(42, "relay"), ProgramId(1, "relay"))
                )

        eng = SerialEngine()
        eng.add_program(Liar(0))
        eng.add_program(Relay(1))
        with pytest.raises(ReproError):
            eng.run()

    def test_priority_order(self):
        executed = []

        class P(PatchProgram):
            def __init__(self, patch, prio):
                super().__init__(patch, "t")
                self.prio = prio

            def input(self, s):
                pass

            def compute(self):
                executed.append(self.patch)

            def output(self):
                return None

            def vote_to_halt(self):
                return True

            def priority(self):
                return self.prio

        eng = SerialEngine()
        for i, prio in enumerate([1.0, 5.0, 3.0]):
            eng.add_program(P(i, prio))
        eng.run()
        assert executed == [1, 2, 0]  # by descending priority

    def test_reactivation_counted(self):
        eng = SerialEngine()
        a = Relay(0, nxt=1)
        b = Relay(1)
        a.hops = 1
        eng.add_program(a)
        eng.add_program(b)
        # Force b to halt before a's stream arrives by executing b first.
        # both priorities default to 0 -> insertion order is a, then b
        stats = eng.run()
        assert stats.executions >= 2

    def test_livelock_guard(self):
        class Spinner(PatchProgram):
            def __init__(self):
                super().__init__(0, "spin")

            def input(self, s):
                pass

            def compute(self):
                pass

            def output(self):
                return None

            def vote_to_halt(self):
                return False  # never halts

        eng = SerialEngine(max_executions=100)
        eng.add_program(Spinner())
        with pytest.raises(ReproError):
            eng.run()

    class Thrice(PatchProgram):
        """Needs exactly three runs: votes to halt after the third."""

        def __init__(self):
            super().__init__(0, "thrice")
            self.runs = 0

        def input(self, s):
            pass

        def compute(self):
            self.runs += 1

        def output(self):
            return None

        def vote_to_halt(self):
            return self.runs >= 3

    def test_max_executions_is_an_exact_budget(self):
        """``max_executions=N`` allows N runs, not N + 1."""
        eng = SerialEngine(max_executions=2)
        eng.add_program(self.Thrice())
        with pytest.raises(ReproError, match="max_executions"):
            eng.run()
        assert eng.stats.executions == 2
        eng = SerialEngine(max_executions=3)
        eng.add_program(self.Thrice())
        assert eng.run().executions == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, float("nan")])
    def test_max_executions_must_be_a_positive_integer(self, bad):
        with pytest.raises(ReproError, match="max_executions"):
            SerialEngine(max_executions=bad)

    def test_remaining_workload_enforced(self):
        class Sloppy(Relay):
            def remaining_workload(self):
                return 3  # lies about unfinished work

        eng = SerialEngine()
        eng.add_program(Sloppy(0))
        with pytest.raises(ReproError):
            eng.run()

    def test_self_stream(self):
        """A program may stream to itself and must reactivate."""

        class SelfPing(PatchProgram):
            def __init__(self):
                super().__init__(0, "self")
                self.rounds = 0
                self._out = []

            def init(self):
                self._out.append(
                    Stream(self.id, self.id, payload=None, items=1)
                )

            def input(self, s):
                self.rounds += 1

            def compute(self):
                if 0 < self.rounds < 3:
                    self._out.append(
                        Stream(self.id, self.id, payload=None, items=1)
                    )

            def output(self):
                return self._out.pop(0) if self._out else None

            def vote_to_halt(self):
                return True

        eng = SerialEngine()
        p = SelfPing()
        eng.add_program(p)
        eng.run()
        assert p.rounds == 3


def test_programs_are_run_only_by_run_step():
    """Alg. 1's step exists once: no executor in the package calls a
    program's ``compute`` or ``input`` outside ``core.engine.run_step``."""
    callers = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("compute", "input")):
                    callers.add((path.name, fn.name))
    assert callers == {("engine.py", "run_step")}


class TestWorkloadTracker:
    def test_commit_and_done(self):
        t = WorkloadTracker()
        t.commit("a", 5)
        t.commit("b", 3)
        assert t.total() == 8
        assert not t.is_done()
        t.commit("a", 0)
        t.commit("b", 0)
        assert t.is_done()

    def test_negative_rejected(self):
        t = WorkloadTracker()
        with pytest.raises(ReproError):
            t.commit("a", -1)

    def test_pending_keys(self):
        t = WorkloadTracker()
        t.commit("x", 1)
        assert t.pending_keys() == ["x"]


class TestWorkloadTrackerEpochs:
    """Idempotent commits under re-execution (crash recovery)."""

    def test_stale_epoch_commit_ignored(self):
        t = WorkloadTracker()
        assert t.commit("a", 7, epoch=1)  # migrated program's commit
        assert not t.commit("a", 0, epoch=0)  # lost execution's late commit
        assert t.total() == 7  # the stale zero did not win
        assert not t.is_done()

    def test_same_epoch_recommit_applied(self):
        t = WorkloadTracker()
        assert t.commit("a", 5, epoch=2)
        assert t.commit("a", 3, epoch=2)  # re-delivered commit: last wins
        assert t.total() == 3

    def test_newer_epoch_overrides(self):
        t = WorkloadTracker()
        t.commit("a", 0, epoch=0)  # finished... on the crashed proc
        assert t.is_done()
        assert t.commit("a", 4, epoch=1)  # re-executed from checkpoint
        assert not t.is_done()
        t.commit("a", 0, epoch=1)
        assert t.is_done()


def _marker_walk(n):
    """Misra's marker on a ring of ``n`` idle processes, all black at
    the start, stepped one visit at a time: hops until ``n``
    consecutive clean (white) visits."""
    black = [True] * n
    holder = hops = clean = 0
    while True:
        if black[holder]:
            black[holder] = False
            clean = 0
        else:
            clean += 1
        if clean == n:
            return hops
        holder = (holder + 1) % n
        hops += 1


@pytest.mark.parametrize("n", range(1, 9))
def test_consensus_hops_closed_form(n):
    """One circuit of ``n`` hops whitens every process, ``n - 1`` more
    make ``n`` clean visits."""
    assert consensus_hops(n) == _marker_walk(n) == 2 * n - 1


def test_consensus_hops_needs_a_process():
    with pytest.raises(ReproError):
        consensus_hops(0)
