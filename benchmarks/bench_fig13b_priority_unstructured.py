"""Fig. 13b: priority strategies on unstructured meshes vs core count.

Paper: JSNT-U, reactor mesh, strategies BFS / BFS+SLBD / SLBD /
SLBD+BFS over 384..6,144 cores; unlike on structured meshes the effect
"is not so significant".

Scaled: reactor at resolution 26, 24..192 simulated cores.  Shape to
reproduce: all strategies scale, and the spread between them stays
small (well under the 2-3x separations of the structured Fig. 9b).
"""

import pytest

from repro.runtime import CostModel

from _common import bench_args, maybe_profile, print_series, reactor_app

STRATEGIES = ["bfs", "bfs+slbd", "slbd", "slbd+bfs"]
CORES = [24, 48, 96, 192]
GROUPS = 4


def run_fig13b() -> dict[str, list[float]]:
    out: dict[str, list[float]] = {s: [] for s in STRATEGIES}
    apps = {
        strat: reactor_app(
            26, CORES[0], patch_size=120, groups=GROUPS, strategy=strat
        )
        for strat in STRATEGIES
    }
    for cores in CORES:
        for strat, app in apps.items():
            rep = app.sweep_report(cores, cost=CostModel(groups=GROUPS))
            out[strat].append(rep.makespan * 1e3)
    return out


@pytest.mark.benchmark(group="fig13b")
def test_fig13b_priority_strategies_unstructured(benchmark):
    out = benchmark.pedantic(run_fig13b, rounds=1, iterations=1)
    rows = [
        [c] + [out[s][i] for s in STRATEGIES] for i, c in enumerate(CORES)
    ]
    print_series(
        "Fig. 13b - priority strategies (unstructured reactor, ms)",
        ["cores"] + [s.upper() for s in STRATEGIES],
        rows,
    )
    for s in STRATEGIES:
        assert out[s][-1] < out[s][0], f"{s} must scale"
    # The paper's observation: strategy effect is modest on
    # unstructured meshes.
    for i in range(len(CORES)):
        vals = [out[s][i] for s in STRATEGIES]
        assert max(vals) / min(vals) < 1.5, (
            f"spread too large at {CORES[i]} cores: {vals}"
        )
if __name__ == "__main__":
    args = bench_args("Fig. 13b: priority strategies (unstructured)")
    out = maybe_profile(run_fig13b, "fig13b", args.profile)
    rows = [[c] + [out[s][i] for s in STRATEGIES]
            for i, c in enumerate(CORES)]
    print_series("Fig. 13b - priority strategies (unstructured)",
                 ["cores"] + list(STRATEGIES), rows)
