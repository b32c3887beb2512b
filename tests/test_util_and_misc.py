"""Tests for utilities, reporting helpers and remaining edge cases."""

import numpy as np
import pytest

from repro._util import ReproError, as_float_array, as_int_array, check, prod
from repro.runtime import CATEGORIES, Breakdown, CostModel, RunReport
from repro.sweep import SweepTopology, level_symmetric


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

    def test_as_float_array(self):
        a = as_float_array([1, 2, 3], ndim=1)
        assert a.dtype == np.float64
        with pytest.raises(ReproError):
            as_float_array([[1.0]], ndim=1)

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
        assert rep.core_seconds == pytest.approx(4.0)

    def test_empty_breakdown_fractions(self):
        bd = Breakdown()
        assert set(bd.fractions().values()) == {0.0}


class TestOnCyclePolicy:
    def test_unknown_policy_rejected(self, disk_patches):
        with pytest.raises(ReproError):
            SweepTopology(
                disk_patches, level_symmetric(2), on_cycle="ignore"
            )

    def test_acyclic_mesh_breaks_nothing(self, disk_patches):
        topo = SweepTopology(
            disk_patches, level_symmetric(2), on_cycle="break"
        )
        assert topo.broken_edges == 0

    def test_break_policy_completes_sweep(self, monkeypatch, disk_patches):
        """Force an artificial cycle into one angle's edges and check
        that the break policy yields runnable programs."""
        import repro.sweep.dag as dagmod

        real = dagmod.directed_edges

        def sabotaged(interfaces, direction, tol=1e-12):
            u, v = real(interfaces, direction, tol)
            # Append a 2-cycle between cells 0 and 1.
            u2 = np.concatenate([u, [0, 1]])
            v2 = np.concatenate([v, [1, 0]])
            return u2, v2

        monkeypatch.setattr(dagmod, "directed_edges", sabotaged)
        topo = dagmod.SweepTopology(
            disk_patches, level_symmetric(2), on_cycle="break"
        )
        assert topo.broken_edges >= 1

        # The resulting graphs still sweep to completion.
        from repro.core import SerialEngine
        from repro.sweep.priorities import apply_priorities
        from repro.sweep.sweep_program import SweepPatchProgram

        apply_priorities(topo, "fifo+fifo")
        eng = SerialEngine()
        for (p, a), g in topo.graphs.items():
            eng.add_program(
                SweepPatchProgram(
                    g, disk_patches.patches[p].cells, grain=32, angle=a
                )
            )
        eng.run()  # termination check inside validates full workload

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
        with pytest.raises(ReproError):
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
