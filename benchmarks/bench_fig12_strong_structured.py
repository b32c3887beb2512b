"""Fig. 12: strong scalability of JSNT-S on the Kobayashi benchmark.

Paper: (a) Kobayashi-400, 320 angles, 768 -> 24,576 cores (32x),
speedup 14.3 / efficiency 44.7%; (b) Kobayashi-800, 4,800 -> 76,800
cores (16x), speedup 7.4 / efficiency 46.3%.

Scaled: (a) Kobayashi-24, 24 angles, 24 -> 384 cores (16x);
(b) Kobayashi-32, 48 -> 768 cores (16x).  Shape to reproduce:
monotone speedup with efficiency decaying into the 30-70% band at 16x.
"""

import pytest

from _common import (
    KOBA_LARGE, KOBA_MIDDLE, bench_args, check_hb, koba_app, maybe_profile,
    print_series, snapshot_cadence_run, write_chrome_trace,
    write_snapshot_json,
)


def _strong_scaling(
    n: int, cores_list: list[int], patch: int,
    trace_dir=None, hb=None, snap_every=None, snap_stats=None,
) -> list[list]:
    rows = []
    base = None
    traced = trace_dir is not None or hb is not None
    app = koba_app(n, cores_list[0], patch=patch)
    for cores in cores_list:
        label = f"fig12-koba{n}-c{cores}"
        if snap_every:
            rep = snapshot_cadence_run(
                lambda mgr: app.sweep_report(cores, coarsened=False,
                                             persist=mgr),
                label, snap_every, snap_stats,
            )
        else:
            rep = app.sweep_report(cores, coarsened=False, trace=traced)
        if traced:
            if trace_dir is not None:
                write_chrome_trace(rep, label, trace_dir)
            check_hb(rep, label, hb)
        if base is None:
            base = (cores, rep.makespan)
        speedup = base[1] / rep.makespan * 1.0
        eff = speedup * base[0] / cores
        rows.append([cores, rep.makespan * 1e3, speedup, eff,
                     rep.idle_fraction()])
    return rows


def run_fig12a() -> list[list]:
    return _strong_scaling(KOBA_MIDDLE, [24, 48, 96, 192, 384], patch=6)


def run_fig12a_smoke() -> list[list]:
    """CI-sized fig12a: the two smallest core counts only."""
    return _strong_scaling(KOBA_MIDDLE, [24, 48], patch=6)


def run_fig12b() -> list[list]:
    return _strong_scaling(KOBA_LARGE, [48, 96, 192, 384, 768], patch=8)


@pytest.mark.benchmark(group="fig12")
def test_fig12a_kobayashi_middle_scale(benchmark):
    rows = benchmark.pedantic(run_fig12a, rounds=1, iterations=1)
    print_series(
        f"Fig. 12a - strong scaling, Kobayashi-{KOBA_MIDDLE} "
        "(paper: Kobayashi-400, eff 44.7% at 32x)",
        ["cores", "time_ms", "speedup", "efficiency", "idle_frac"],
        rows,
    )
    times = [r[1] for r in rows]
    assert all(a > b for a, b in zip(times, times[1:])), "speedup monotone"
    eff_at_16x = rows[-1][3]
    assert 0.25 <= eff_at_16x <= 0.85, (
        f"efficiency at 16x cores should land in the paper's band, "
        f"got {eff_at_16x:.2f}"
    )


@pytest.mark.benchmark(group="fig12")
def test_fig12b_kobayashi_large_scale(benchmark):
    rows = benchmark.pedantic(run_fig12b, rounds=1, iterations=1)
    print_series(
        f"Fig. 12b - strong scaling, Kobayashi-{KOBA_LARGE} "
        "(paper: Kobayashi-800, eff 46.3% at 16x)",
        ["cores", "time_ms", "speedup", "efficiency", "idle_frac"],
        rows,
    )
    times = [r[1] for r in rows]
    assert all(a > b for a, b in zip(times, times[1:]))
    assert 0.2 <= rows[-1][3] <= 0.85


_HDR = ["cores", "time_ms", "speedup", "efficiency", "idle_frac"]

if __name__ == "__main__":
    args = bench_args("Fig. 12: strong scaling of JSNT-S (Kobayashi)")
    _tr, _hb = args.trace, args.check_hb
    _snap = args.snapshot_every
    if _snap and (_tr is not None or _hb is not None):
        raise SystemExit(
            "--snapshot-every is incompatible with --trace/--check-hb "
            "(trace buffers are not part of the snapshot schema)"
        )
    _stats: list = []
    if args.smoke:
        rows = maybe_profile(
            lambda: _strong_scaling(
                KOBA_MIDDLE, [24, 48], patch=6, trace_dir=_tr, hb=_hb,
                snap_every=_snap, snap_stats=_stats,
            ),
            "fig12a_smoke", args.profile,
        )
        print_series("Fig. 12a (smoke)", _HDR, rows)
    else:
        rows = maybe_profile(
            lambda: _strong_scaling(
                KOBA_MIDDLE, [24, 48, 96, 192, 384], patch=6,
                trace_dir=_tr, hb=_hb, snap_every=_snap, snap_stats=_stats,
            ),
            "fig12a", args.profile,
        )
        print_series(f"Fig. 12a - Kobayashi-{KOBA_MIDDLE}", _HDR, rows)
        rows = maybe_profile(
            lambda: _strong_scaling(
                KOBA_LARGE, [48, 96, 192, 384, 768], patch=8,
                trace_dir=_tr, hb=_hb, snap_every=_snap, snap_stats=_stats,
            ),
            "fig12b", args.profile,
        )
        print_series(f"Fig. 12b - Kobayashi-{KOBA_LARGE}", _HDR, rows)
    if _snap:
        write_snapshot_json("fig12", _snap, _stats)
