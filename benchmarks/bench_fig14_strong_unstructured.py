"""Fig. 14: strong scalability of JSNT-U on ball (tetrahedra) meshes.

Paper: (a) small ball, 482,248 cells: speedup 11.5 (72%) at 384 cores
and 75.8 (30%) at 6,144 cores vs the 24-core base (256x range);
(b) large ball, 173,197,768 cells: speedup 9.9 (62%) at 49,152 cores
vs the 3,072-core base (16x range).

Scaled: (a) ball at resolution 14 (~10k tets), 24 -> 384 cores (16x);
(b) ball at resolution 20 (~30k tets), 48 -> 768 cores (16x).
Shape to reproduce: monotone speedup; small-ball efficiency at 16x in
the 25-75% band; the larger mesh holding efficiency better at equal
core multiples.
"""

import pytest

from _common import (
    ball_app, bench_args, check_hb, maybe_profile, print_series,
    snapshot_cadence_run, write_chrome_trace, write_snapshot_json,
)


def _strong(resolution: int, cores_list: list[int], patch_size: int,
            trace_dir=None, hb=None, snap_every=None, snap_stats=None):
    rows = []
    base = None
    traced = trace_dir is not None or hb is not None
    app = ball_app(resolution, cores_list[0], patch_size=patch_size)
    for cores in cores_list:
        label = f"fig14-ball{resolution}-c{cores}"
        if snap_every:
            rep = snapshot_cadence_run(
                lambda mgr: app.sweep_report(cores, persist=mgr),
                label, snap_every, snap_stats,
            )
        else:
            rep = app.sweep_report(cores, trace=traced)
        if traced:
            if trace_dir is not None:
                write_chrome_trace(rep, label, trace_dir)
            check_hb(rep, label, hb)
        if base is None:
            base = (cores, rep.makespan)
        sp = base[1] / rep.makespan
        eff = sp * base[0] / cores
        rows.append([cores, rep.makespan * 1e3, sp, eff, rep.idle_fraction()])
    return app.solver.mesh.num_cells, rows


def run_fig14a():
    return _strong(14, [24, 48, 96, 192, 384], patch_size=120)


def run_fig14b():
    return _strong(20, [48, 96, 192, 384, 768], patch_size=120)


@pytest.mark.benchmark(group="fig14")
def test_fig14a_small_ball(benchmark):
    ncells, rows = benchmark.pedantic(run_fig14a, rounds=1, iterations=1)
    print_series(
        f"Fig. 14a - strong scaling, small ball ({ncells} tets; "
        "paper: 482k cells, eff 72% at 16x)",
        ["cores", "time_ms", "speedup", "efficiency", "idle_frac"],
        rows,
    )
    times = [r[1] for r in rows]
    assert all(a > b for a, b in zip(times, times[1:]))
    assert 0.2 <= rows[-1][3] <= 0.9


@pytest.mark.benchmark(group="fig14")
def test_fig14b_large_ball(benchmark):
    ncells, rows = benchmark.pedantic(run_fig14b, rounds=1, iterations=1)
    print_series(
        f"Fig. 14b - strong scaling, large ball ({ncells} tets; "
        "paper: 173M cells, eff 62% at 16x)",
        ["cores", "time_ms", "speedup", "efficiency", "idle_frac"],
        rows,
    )
    times = [r[1] for r in rows]
    assert all(a > b for a, b in zip(times, times[1:]))
    assert 0.25 <= rows[-1][3] <= 0.9


_HDR = ["cores", "time_ms", "speedup", "efficiency", "idle_frac"]

if __name__ == "__main__":
    args = bench_args("Fig. 14: strong scaling of JSNT-U (ball meshes)")
    _tr, _hb = args.trace, args.check_hb
    _snap = args.snapshot_every
    if _snap and (_tr is not None or _hb is not None):
        raise SystemExit(
            "--snapshot-every is incompatible with --trace/--check-hb "
            "(trace buffers are not part of the snapshot schema)"
        )
    _stats: list = []
    if args.smoke:
        ncells, rows = maybe_profile(
            lambda: _strong(
                14, [24, 48], patch_size=120, trace_dir=_tr, hb=_hb,
                snap_every=_snap, snap_stats=_stats,
            ),
            "fig14a_smoke", args.profile,
        )
        print_series(f"Fig. 14a (smoke, {ncells} tets)", _HDR, rows)
    else:
        ncells, rows = maybe_profile(
            lambda: _strong(
                14, [24, 48, 96, 192, 384], patch_size=120,
                trace_dir=_tr, hb=_hb, snap_every=_snap, snap_stats=_stats,
            ),
            "fig14a", args.profile,
        )
        print_series(f"Fig. 14a - small ball ({ncells} tets)", _HDR, rows)
        ncells, rows = maybe_profile(
            lambda: _strong(
                20, [48, 96, 192, 384, 768], patch_size=120,
                trace_dir=_tr, hb=_hb, snap_every=_snap, snap_stats=_stats,
            ),
            "fig14b", args.profile,
        )
        print_series(f"Fig. 14b - large ball ({ncells} tets)", _HDR, rows)
    if _snap:
        write_snapshot_json("fig14", _snap, _stats)
