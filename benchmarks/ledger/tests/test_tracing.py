"""Span arithmetic and wrapper hygiene of the ledger's tracer."""

import pytest

from tracing import ENTRY_POINTS, LAYERS, Tracer, traced


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans_adds_up_to_the_root():
    clock = Clock()
    tr = Tracer(clock)
    tr.enter("root")
    clock.t = 1.0
    tr.enter("a")
    clock.t = 2.0
    tr.enter("b")
    clock.t = 5.0
    assert tr.exit() == 3.0  # b
    clock.t = 7.0
    assert tr.exit() == 6.0  # a: 6 s, 3 of them in b
    clock.t = 10.0
    assert tr.exit() == 10.0
    stats = tr.layer_stats()
    assert stats == {"b": (1, 3.0), "a": (1, 3.0), "root": (1, 4.0)}
    assert sum(s for _, s in stats.values()) == 10.0
    assert tr.agg[("b", "a")] == [1, 3.0, 3.0]
    assert tr.agg[("a", "root")] == [1, 6.0, 3.0]


def test_recursive_spans_count_wall_time_once():
    clock = Clock()
    tr = Tracer(clock)
    tr.enter("f")
    clock.t = 1.0
    tr.enter("f")
    clock.t = 3.0
    tr.exit()
    clock.t = 4.0
    tr.exit()
    assert tr.layer_stats() == {"f": (2, 4.0)}
    assert tr.agg[("f", "f")] == [1, 2.0, 2.0]
    assert tr.agg[("f", None)] == [1, 4.0, 2.0]


def test_siblings_of_one_layer_aggregate_per_parent():
    clock = Clock()
    tr = Tracer(clock)
    with tr.phase("root"):
        for _ in range(3):
            tr.enter("x")
            clock.t += 2.0
            tr.exit()
            clock.t += 1.0
    assert tr.agg[("x", "root")] == [3, 6.0, 6.0]
    assert tr.layer_stats()["root"] == (1, 3.0)
    assert [p[0] for p in tr.phases] == ["root"]


def _originals():
    import importlib

    out = []
    for modules in ENTRY_POINTS.values():
        for modname, names in modules.items():
            module = importlib.import_module(modname)
            for dotted in names:
                cls, _, attr = dotted.rpartition(".")
                owner = getattr(module, cls) if cls else module
                out.append((owner, attr, vars(owner).get(attr)))
    return out


def test_every_wrapper_is_removed_after_the_block():
    from repro.apps import jsnt
    from repro.mesh import generators
    from repro.runtime.scheduler import Scheduler

    before = _originals()
    execute = Scheduler.execute
    with traced(Tracer()):
        assert Scheduler.execute is not execute
        assert jsnt.ball_tet_mesh is not before[0][2]
        assert jsnt.ball_tet_mesh is generators.ball_tet_mesh
    assert Scheduler.execute is execute
    assert jsnt.ball_tet_mesh is generators.ball_tet_mesh
    for (owner, attr, original), (_, _, now) in zip(before, _originals()):
        assert now is original, f"{owner.__name__}.{attr} still wrapped"


def test_every_wrapper_is_removed_after_an_exception():
    from repro.runtime.scheduler import Scheduler

    before = _originals()
    execute = Scheduler.execute
    with pytest.raises(RuntimeError), traced(Tracer()):
        assert Scheduler.execute is not execute
        raise RuntimeError("boom")
    assert Scheduler.execute is execute
    for (owner, attr, original), (_, _, now) in zip(before, _originals()):
        assert now is original, f"{owner.__name__}.{attr} still wrapped"


def test_traced_run_is_the_same_run():
    """The clean loop binds ``sched.execute`` from the instance, so it
    picks the class-level wrappers up; tracing changes no virtual result."""
    from repro import JSNTS, Machine

    machine = Machine(cores_per_proc=12)

    def run():
        app = JSNTS.kobayashi(8, total_cores=24, machine=machine, patch_shape=(4, 4, 4))
        return app.sweep_report(24)

    plain = run()
    tr = Tracer()
    with traced(tr), tr.phase("harness.body"):
        rep = run()
    assert (rep.makespan, rep.events, rep.executions) == (
        plain.makespan, plain.events, plain.executions)
    stats = tr.layer_stats()
    assert stats["runtime.scheduler"][0] >= rep.executions
    assert stats["runtime.engine_des"][0] == 1
    assert set(stats) <= set(LAYERS) | {"harness.body"}
    total = tr.agg[("harness.body", None)][1]
    assert sum(s for _, s in stats.values()) == pytest.approx(total, rel=1e-9)
