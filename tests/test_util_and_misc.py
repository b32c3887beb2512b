"""Tests for utilities, reporting helpers and remaining edge cases."""

import numpy as np
import pytest

from repro._util import ReproError, as_int_array, check, prod
from repro.runtime import CATEGORIES, Breakdown, CostModel, RunReport
from repro.sweep import level_symmetric


class TestUtil:
    def test_check(self):
        check(True, "ok")
        with pytest.raises(ReproError):
            check(False, "boom")

    def test_as_int_array(self):
        a = as_int_array([[1, 2], [3, 4]], ndim=2)
        assert a.dtype == np.int64
        with pytest.raises(ReproError):
            as_int_array([1, 2], ndim=2)

    def test_prod(self):
        assert prod([]) == 1
        assert prod([2, 3, 4]) == 24


class TestBreakdownReporting:
    def test_add_and_fractions(self):
        bd = Breakdown()
        bd.add(("w", 0, 0), "kernel", 2.0)
        bd.add(("w", 0, 1), "comm", 1.0)
        bd.finalize_idle(3.0, [("w", 0, 0), ("w", 0, 1)])
        assert bd.by_category["idle"] == pytest.approx(3.0)
        fr = bd.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["kernel"] == pytest.approx(2.0 / 6.0)

    def test_negative_time_rejected(self):
        bd = Breakdown()
        with pytest.raises(ValueError):
            bd.add(("w", 0, 0), "kernel", -1.0)

    def test_report_format_contains_all_categories(self):
        bd = Breakdown()
        bd.add(("w", 0, 0), "kernel", 1.0)
        bd.finalize_idle(1.0, [("w", 0, 0)])
        rep = RunReport(makespan=1.0, breakdown=bd, total_cores=1)
        text = rep.format_breakdown("hdr")
        for c in CATEGORIES:
            assert c in text

    def test_overhead_and_idle_fractions(self):
        bd = Breakdown()
        bd.add(("w", 0, 0), "graph_op", 1.0)
        bd.add(("w", 0, 0), "kernel", 1.0)
        bd.finalize_idle(4.0, [("w", 0, 0)])
        rep = RunReport(makespan=4.0, breakdown=bd, total_cores=1)
        assert rep.overhead_fraction() == pytest.approx(0.25)
        assert rep.idle_fraction() == pytest.approx(0.5)

    def test_empty_breakdown_fractions(self):
        bd = Breakdown()
        assert set(bd.fractions().values()) == {0.0}


class TestOnCyclePolicy:
    """A cyclic sweep graph is refused when validated; nothing severs
    dependencies to make it sweepable."""

    def test_error_policy_raises_on_cycle(self, monkeypatch, disk_patches):
        import repro.sweep.dag as dagmod

        real = dagmod.directed_edges

        def sabotaged(interfaces, direction, tol=1e-12):
            u, v = real(interfaces, direction, tol)
            return (
                np.concatenate([u, [0, 1]]),
                np.concatenate([v, [1, 0]]),
            )

        monkeypatch.setattr(dagmod, "directed_edges", sabotaged)
        with pytest.raises(
            ReproError,
            match=r"is cyclic; mesh is too distorted for a single-direction "
            r"sweep$",
        ):
            dagmod.SweepTopology(
                disk_patches, level_symmetric(2), validate=True
            )


class TestCostModelDefaults:
    def test_frozen(self):
        cm = CostModel()
        with pytest.raises(Exception):
            cm.t_vertex = 1.0

    def test_unpack_cost(self):
        cm = CostModel(groups=2)
        c = cm.unpack_cost(3, 10)
        assert c == pytest.approx(
            3 * cm.t_unpack_fixed + 10 * cm.t_unpack_item * 2
        )
