"""Fig. 17: JSweep vs the manually-optimized JAxMIN implementations.

Paper: (a) JSweep vs JASMIN's SnSweep (a hand-optimized data-driven
Sweep3D) on Kobayashi-400 - JSweep constantly faster; (b) JSweep vs
JAUMIN's JSNT-U on the ball mesh - constant reduction with the gap
slightly growing with core count.

Reproduction: the JAxMIN baselines run the *same* data-driven sweep
but on the MPI-only runtime (every core a rank: no dedicated master to
overlap communication, no intra-process worker pool to absorb load
imbalance) - exactly the architectural difference the paper credits
for JSweep's advantage (Sec. IV-A).  Shapes to reproduce: hybrid
(JSweep) faster at every core count in both panels, with a growing
relative gap in (b).
"""

import pytest

from _common import ball_app, bench_args, koba_app, maybe_profile, print_series

KOBA_CORES = [24, 48, 96, 192]
BALL_CORES = [24, 48, 96, 192]


def run_fig17a():
    rows = []
    # patch 4^3 on a 24^3 mesh: 216 patches, enough for 192 ranks.
    app = koba_app(24, KOBA_CORES[0], patch=4)
    for cores in KOBA_CORES:
        hybrid = app.sweep_report(cores)
        mpi = app.sweep_report(cores, mode="mpi_only")
        rows.append([cores, mpi.makespan * 1e3, hybrid.makespan * 1e3,
                     mpi.makespan / hybrid.makespan])
    return rows


def run_fig17b():
    rows = []
    app = ball_app(14, BALL_CORES[0], patch_size=50)
    for cores in BALL_CORES:
        hybrid = app.sweep_report(cores)
        mpi = app.sweep_report(cores, mode="mpi_only")
        rows.append([cores, mpi.makespan * 1e3, hybrid.makespan * 1e3,
                     mpi.makespan / hybrid.makespan])
    return rows


@pytest.mark.benchmark(group="fig17")
def test_fig17a_vs_jasmin_structured(benchmark):
    rows = benchmark.pedantic(run_fig17a, rounds=1, iterations=1)
    print_series(
        "Fig. 17a - JSweep (hybrid) vs JASMIN-style (MPI-only), Kobayashi",
        ["cores", "jasmin_ms", "jsweep_ms", "gap"],
        rows,
    )
    for r in rows:
        assert r[3] > 1.0, f"JSweep must win at {r[0]} cores"


@pytest.mark.benchmark(group="fig17")
def test_fig17b_vs_jaumin_unstructured(benchmark):
    rows = benchmark.pedantic(run_fig17b, rounds=1, iterations=1)
    print_series(
        "Fig. 17b - JSweep (hybrid) vs JAUMIN-style (MPI-only), ball",
        ["cores", "jaumin_ms", "jsweep_ms", "gap"],
        rows,
    )
    for r in rows:
        assert r[3] > 1.0
    # The comparative advantage grows (slightly) with core count.
    assert rows[-1][3] > rows[0][3]
if __name__ == "__main__":
    args = bench_args("Fig. 17: JSweep (hybrid) vs MPI-only baseline")
    rows = maybe_profile(run_fig17a, "fig17a", args.profile)
    print_series("Fig. 17a - Kobayashi",
                 ["cores", "jasmin_ms", "jsweep_ms", "gap"], rows)
    rows = maybe_profile(run_fig17b, "fig17b", args.profile)
    print_series("Fig. 17b - ball",
                 ["cores", "jaumin_ms", "jsweep_ms", "gap"], rows)
