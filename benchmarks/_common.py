"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure of the paper's
evaluation (Sec. VI) at a scaled-down size; EXPERIMENTS.md maps each
paper artifact to its module here and records paper-vs-measured.

Scaling convention: simulated core counts and mesh resolutions are the
paper's divided by ~16 (strong-scaling sweeps keep the paper's 2x
grids), with work-per-core preserved within ~2x.  All runs use the
Tianhe-2-like machine model (12-core sockets, one MPI process per
socket, master core reserved).
"""

from __future__ import annotations

import argparse
import json
import os

from repro import JSNTS, JSNTU, Machine
from repro.runtime import CostModel
from repro.sweep import product_quadrature

#: Evaluation platform model (Tianhe-2: 2 x 12-core sockets per node).
MACHINE = Machine(cores_per_proc=12)

#: Scaled "Kobayashi-400" stand-ins: cells per axis.
KOBA_MIDDLE = 24  # paper: 400
KOBA_LARGE = 32  # paper: 800 (kept at 2x cells of the middle run per axis/4)

#: Scaled angle set (paper: 320 directions -> 24).
KOBA_ANGLES = (2, 12)


def koba_app(n: int, cores: int, patch: int = 6, grain: int = 1000,
             strategy: str = "slbd+slbd"):
    """JSNT-S Kobayashi application at scaled size."""
    return JSNTS.kobayashi(
        n,
        total_cores=cores,
        machine=MACHINE,
        patch_shape=(patch, patch, patch),
        quadrature=product_quadrature(*KOBA_ANGLES),
        grain=grain,
        strategy=strategy,
    )


def ball_app(resolution: int, cores: int, patch_size: int = 500,
             grain: int = 64, strategy: str = "slbd+slbd",
             groups: int = 1):
    """JSNT-U ball application (paper defaults: S4, patch 500, grain 64)."""
    return JSNTU.ball(
        resolution,
        total_cores=cores,
        machine=MACHINE,
        patch_size=patch_size,
        grain=grain,
        strategy=strategy,
        groups=groups,
    )


def reactor_app(resolution: int, cores: int, patch_size: int = 500,
                grain: int = 64, strategy: str = "slbd+slbd",
                groups: int = 1):
    """JSNT-U reactor application."""
    return JSNTU.reactor(
        resolution,
        total_cores=cores,
        machine=MACHINE,
        patch_size=patch_size,
        grain=grain,
        strategy=strategy,
        groups=groups,
    )


def groups_cost(groups: int) -> CostModel:
    """Cost model with the energy-group multiplier set."""
    return CostModel(groups=groups)


def print_series(title: str, header: list[str], rows: list[list]) -> None:
    """Print a paper-style results table to stdout."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = []
        for v, w in zip(row, widths):
            if isinstance(v, float):
                cells.append(f"{v:.4g}".rjust(w))
            else:
                cells.append(str(v).rjust(w))
        print("  ".join(cells))


def bench_args(
    description: str,
    argv: list[str] | None = None,
    extra=None,
) -> argparse.Namespace:
    """CLI for running one benchmark module as a plain script.

    ``pytest benchmarks/`` stays the bulk path; ``python benchmarks/
    bench_xxx.py --trace`` runs one benchmark standalone and exports a
    Chrome-trace JSON (``chrome://tracing`` / Perfetto) per DES run.
    ``--smoke`` selects the benchmark's CI-sized configuration.
    ``extra``, when given, is called with the parser to add
    benchmark-specific options before parsing.
    """
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "--trace",
        nargs="?",
        const="traces",
        default=None,
        metavar="DIR",
        help="record structured event traces and write one "
        "Chrome-trace JSON per run into DIR (default: ./traces)",
    )
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="run the scaled-down CI smoke configuration",
    )
    ap.add_argument(
        "--check-hb",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="run the vector-clock happens-before checker over every "
        "DES run (arms tracing); with DIR, also export each run's HB "
        "record stream as DIR/<label>.hb.json for "
        "`python -m repro.analysis check-trace`",
    )
    ap.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="arm durable-execution instrumentation: DES benches "
        "snapshot the runtime every N popped events (running each "
        "configuration twice to measure the cadence overhead); the "
        "service bench journals every transition to a write-ahead "
        "log.  Count/bytes/overhead land in the bench's JSON artifact",
    )
    ap.add_argument(
        "--profile",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="run the benchmark under cProfile and write the top-25 "
        "cumulative-time table to DIR/<bench>.pstats.txt plus the raw "
        "stats to DIR/<bench>.pstats (default DIR: the working "
        "directory, next to the benchmark's JSON artifacts)",
    )
    if extra is not None:
        extra(ap)
    return ap.parse_args(argv)


def snapshot_cadence_run(run, label: str, every: int, stats: list):
    """Measure one configuration's snapshot-cadence overhead.

    ``run(persist)`` must execute the DES run and return its report.
    Runs it twice - snapshotting off, then armed at ``every`` popped
    events into a throwaway directory - and appends one stats row
    (count, bytes, wall-time overhead %) to ``stats``.  Returns the
    armed run's report: snapshot-armed runs are bitwise-identical to
    unarmed ones, so the caller's series is unchanged.
    """
    import tempfile
    import time

    from repro.persist import SnapshotManager

    t0 = time.perf_counter()
    run(None)
    off = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as d:
        mgr = SnapshotManager(d, every=every, fsync=False)
        t0 = time.perf_counter()
        rep = run(mgr)
        on = time.perf_counter() - t0
    stats.append({
        "label": label,
        "every": every,
        "snapshots": rep.snapshots,
        "snapshot_bytes": rep.snapshot_bytes,
        "wall_off_s": off,
        "wall_armed_s": on,
        "overhead_pct": 100.0 * (on - off) / off if off > 0 else 0.0,
    })
    return rep


def write_snapshot_json(bench: str, every: int, stats: list) -> str:
    """Publish a bench's durability stats as ``BENCH_<bench>_snapshots.json``."""
    path = os.path.join(
        os.path.dirname(__file__), os.pardir,
        f"BENCH_{bench}_snapshots.json",
    )
    path = os.path.normpath(path)
    with open(path, "w") as fh:
        json.dump({"every": every, "rows": stats}, fh, indent=1)
    print(f"snapshots: {path} ({len(stats)} configurations)")
    return path


def maybe_profile(fn, label: str, opt):
    """Run ``fn()`` - under cProfile when ``opt`` (= args.profile) is set.

    Writes the top-25 cumulative-time entries to
    ``DIR/<label>.pstats.txt`` (human-readable, next to whatever JSON
    artifact the bench emits) and the raw profile to
    ``DIR/<label>.pstats`` for pstats/snakeviz tooling.  Returns
    ``fn()``'s result either way.
    """
    if opt is None:
        return fn()
    import cProfile
    import io
    import pstats

    os.makedirs(opt, exist_ok=True)
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    prof.dump_stats(os.path.join(opt, f"{label}.pstats"))
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(25)
    path = os.path.join(opt, f"{label}.pstats.txt")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())
    print(f"profile: {path} (top 25 by cumulative time)")
    return result


def write_chrome_trace(report, label: str, directory: str) -> str:
    """Export ``report``'s event trace as ``DIR/<label>.trace.json``."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{label}.trace.json")
    with open(path, "w") as fh:
        json.dump(report.to_chrome_trace(), fh)
    print(f"trace: {path} ({len(report.trace_events)} events)")
    return path


def check_hb(report, label: str, opt) -> None:
    """Happens-before-check one traced run (``opt`` = args.check_hb).

    ``opt`` is ``None`` (off), ``True`` (check only) or a directory
    (check + export the HB stream for ``repro.analysis check-trace``).
    Races abort the benchmark: a schedule that only *happened* to
    produce the right flux is not a result.
    """
    if opt is None:
        return
    from repro.analysis import check_report, dump_hb_json

    if opt is not True:
        os.makedirs(opt, exist_ok=True)
        path = os.path.join(opt, f"{label}.hb.json")
        n = dump_hb_json(report.hb_events, path)
        print(f"hb: {path} ({n} records)")
    races = check_report(report)
    if races:
        for r in races:
            print("  " + r.format())
        raise SystemExit(f"{label}: {len(races)} happens-before race(s)")
    print(f"hb: {label}: {len(report.hb_events)} records, race-free")


def efficiency(base_cores: int, base_time: float, cores: int, time: float) -> float:
    """Parallel efficiency normalized to the smallest configuration."""
    speedup = base_time / time if time > 0 else 0.0
    return speedup * base_cores / cores


def speedup(base_time: float, time: float) -> float:
    return base_time / time if time > 0 else 0.0
