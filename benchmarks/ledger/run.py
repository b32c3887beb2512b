#!/usr/bin/env python3
"""Performance ledger: one harness, five workloads, named metrics.

    python3 benchmarks/ledger/run.py                      # every workload
    python3 benchmarks/ledger/run.py --traced             # ... plus the traced runs
    python3 benchmarks/ledger/run.py --workload koba_sched --seed 1
    python3 benchmarks/ledger/run.py --workload koba_sched --trace 1 --out trace.json

With ``--workload`` the process measures that workload and prints, as
the last line of standard output, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without it, each workload runs in its own fresh child
process (so ``setup_s`` is cold and ``peak_rss_mb`` belongs to one
workload) and the results are printed as one table.

Host times are calibrated seconds (see ``calibrate.py``); wall clocks
are read here only, never inside ``src/repro``.  A failed correctness
check makes the command exit non-zero.
"""

from __future__ import annotations

import os

# One thread: the workloads are closed loops in a single thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager, suppress

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCRATCH = os.path.join(HERE, ".scratch")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from calibrate import Calibrator
from tracing import LAYERS, Tracer, traced

# Cold constructions per run (setup_s is their median): at least
# SETUP_REPS, then more while they are cheap, so a 20 ms set-up is not
# judged on four samples.
SETUP_REPS, SETUP_MAX, SETUP_SECONDS = 4, 15, 1.5
MIN_REPS = 3  # timed body repetitions, whatever --seconds says
clock = time.perf_counter


def load_spec() -> tuple[dict, dict]:
    """(BENCHMARK.json, ledger.json)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "ledger.json")) as fh:
        ledger = json.load(fh)
    return bench, ledger


@contextmanager
def scratch_dir(prefix: str):
    """A temporary directory inside the checkout, removed afterwards."""
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with suppress(OSError):
            os.rmdir(SCRATCH)  # only when no other run is using it


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _stat(cal: list[float], raw: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(cal)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(cal),
            "raw": statistics.median(raw), "samples": cal, "raw_samples": raw}


class Run:
    """One measurement of one workload in this process."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool, tmp: str):
        from workloads import WORKLOADS  # imports repro

        self.bench, self.ledger = load_spec()
        self.name = name
        self.seconds = seconds
        self.tmp = tmp  # scratch directory for snapshots and the WAL
        size = self.ledger["sizes"]["smoke" if smoke else "full"][name]
        self.workload = WORKLOADS[name](size, seed)
        self.cal = Calibrator(self.ledger["cal_ref_s"])
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list[str] = []
        self.first = None  # the first repetition's observations
        self._rep = 0
        self._tracer = None

    # -- pieces --------------------------------------------------------------

    def lap(self) -> None:
        """Close the running segment, calibrate off the clock, open the
        next one.  Bodies call this between their operations: machine
        speed moves within a second here, so every segment is scaled
        by the two calibration loops that bracket it."""
        raw = clock() - self._seg_start
        if self._tracer is not None:
            self._tracer.enter("harness.calibration")
        self.cal.tick()
        if self._tracer is not None:
            self._tracer.exit()
        self._raw += raw
        self._cal += self.cal.scale(raw)
        self._seg_start = clock()

    def _segments(self, fn, tracer, root: str):
        """``fn(lap)`` as calibrated segments; returns ``(result, raw
        seconds, calibrated seconds)``.  The calibration loop must have
        ticked just before."""
        # Every set-up and repetition starts from the same collector
        # state (off the clock): the previous one's garbage is gone and
        # the generation counters are reset, so full collections fall
        # at the same points of each repetition instead of in some.
        gc.collect()
        self._raw = self._cal = 0.0
        self._tracer = tracer
        try:
            with ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(traced(tracer))
                    stack.enter_context(tracer.phase(root))
                self._seg_start = clock()
                result = fn(self.lap)
                self.lap()
        finally:
            self._tracer = None
        return result, self._raw, self._cal

    def setup(self, tracer=None):
        """One cold construction: ``(state, raw, calibrated seconds)``."""
        return self._segments(self.workload.setup, tracer, "harness.setup")

    def body(self, state, tracer=None):
        """One repetition in a fresh scratch directory; returns
        ``(raw seconds, calibrated seconds, obs)``."""
        self._rep += 1
        tmp = os.path.join(self.tmp, f"rep-{self._rep}")
        os.makedirs(tmp)
        if tracer is not None:
            tracer.rep = self._rep
        try:
            obs, raw, cal = self._segments(
                lambda lap: self.workload.body(state, tmp, lap), tracer, "harness.body")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.attempted += obs.ops
        self.failed += obs.failed_ops
        for check in obs.failed_checks:
            self.fail(check)
        if self.first is None:
            self.first = obs
        elif (obs.virtual, obs.layers) != (self.first.virtual, self.first.layers):
            self.fail("repetitions_disagree")
        return raw, cal, obs

    def fail(self, check: str) -> None:
        print(f"FAILED CHECK {self.name}: {check}", file=sys.stderr)
        self.failed_checks.append(check)

    def timed(self, state, tracers=None) -> tuple[list, list]:
        """Repeat the body for ``--seconds``; with ``tracers`` (a list
        to fill) untraced and traced repetitions alternate."""
        plain, traced_reps = [], []
        self.cal.tick()
        end = clock() + self.seconds
        last = 0.0
        while True:
            n = min(len(plain), len(traced_reps)) if tracers is not None else len(plain)
            if n >= MIN_REPS and clock() + 0.5 * last >= end:
                break
            t0 = clock()
            plain.append(self.body(state))
            if tracers is not None:
                tracers.append(Tracer())
                traced_reps.append(self.body(state, tracers[-1]))
            last = clock() - t0
        return plain, traced_reps

    def result(self, metrics: dict) -> dict:
        failed = min(self.attempted, self.failed + len(self.failed_checks))
        return {
            "correct": not self.failed_checks,
            "attempted": self.attempted,
            "failed": failed,
            "failed_checks": self.failed_checks,
            # what one repetition attempts and fails repeats exactly
            "ops_per_rep": self.first.ops,
            "failed_per_rep": self.first.failed_ops,
            "metrics": metrics,
        }

    # -- the untraced run: end-to-end metrics -------------------------------

    def end_to_end(self) -> dict:
        self.cal.tick()
        setups = []
        spent = 0.0
        while len(setups) < SETUP_REPS or (spent < SETUP_SECONDS and len(setups) < SETUP_MAX):
            state = None  # each construction starts without the previous one's memory
            t0 = clock()
            state, raw, cal = self.setup()
            setups.append((raw, cal))
            spent += clock() - t0  # laps included: they cost the run too
        self.body(state)  # warm-up: caches fill, lazy set-up finishes
        reps, _ = self.timed(state)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        raws = [r for r, _, _ in reps]
        cals = [c for _, c, _ in reps]
        first = self.first
        values = {
            "setup_s": _stat([c for _, c in setups], [r for r, _ in setups], "s"),
            "run_s": _stat(cals, raws, "s"),
            "peak_rss_mb": {"value": rss_mb},
        }
        if first.jobs:
            values["jobs_per_s"] = _stat(
                [first.jobs / c for c in cals], [first.jobs / r for r in raws], "1/s")
        else:
            values["vertices_per_s"] = _stat(
                [first.vertices / c for c in cals], [first.vertices / r for r in raws], "1/s")
        for key in first.paired:
            ratios = [obs.paired[key] for _, _, obs in reps]
            values[key] = _stat(ratios, ratios, "ratio")
        for key, val in first.virtual.items():
            values[key] = {"value": val}
        metrics = {}
        for decl in self.bench["end_to_end"]:
            applies = self.name in self.ledger["end_to_end"][decl["name"]]["workloads"]
            if applies != (decl["name"] in values):
                self.fail(f"metric_applicability.{decl['name']}")
            entry = dict(values.get(decl["name"], {"value": self.ledger["not_applicable_value"]}))
            entry["unit"] = decl["unit"]
            metrics[decl["name"]] = entry
        return self.result(metrics)

    # -- the traced run: per-layer metrics ----------------------------------

    def per_layer(self) -> dict:
        cal = self.cal
        setup_tracer = Tracer()
        cal.tick()
        state, raw, scaled = self.setup(setup_tracer)
        setup_scale = scaled / raw
        self.body(state)  # untraced warm-up
        untraced = self.first
        tracers: list = []
        plain, traced_reps = self.timed(state, tracers)
        for _, _, obs in traced_reps:
            if obs.virtual != untraced.virtual:
                self.fail("traced_virtual_differs")

        run_s = statistics.median(c for _, c, _ in plain)
        traced_s = statistics.median(c for _, c, _ in traced_reps)
        values = dict(untraced.layers)
        setup_stats = setup_tracer.layer_stats()
        rep_stats = [t.layer_stats() for t in tracers]
        scales = [c / r for r, c, _ in traced_reps]
        body_self: dict[str, float] = {}  # median traced repetition, per layer
        for layer in LAYERS:
            calls = {s.get(layer, (0, 0.0))[0] for s in rep_stats}
            if len(calls) != 1:
                self.fail(f"traced_calls_differ.{layer}")
            body_self[layer] = statistics.median(
                s.get(layer, (0, 0.0))[1] * k for s, k in zip(rep_stats, scales))
            at_setup = setup_stats.get(layer, (0, 0.0))
            values[f"{layer}.calls"] = at_setup[0] + max(calls)
            values[f"{layer}.self_s"] = at_setup[1] * setup_scale + body_self[layer]
        executions = values.get("runtime.scheduler.executions", 0)
        values.update({
            "runtime.events_per_s": values.get("runtime.events", 0) / run_s,
            "runtime.scheduler.us_per_execution":
                1e6 * body_self["runtime.scheduler"] / executions if executions else 0.0,
            "runtime.scheduler.vertices_per_execution":
                values.get("sweep.kernels.vertices", 0) / executions if executions else 0.0,
            "harness.trace_overhead": traced_s / run_s,
            "harness.calibration_s": cal.total_s,
            "harness.reps": len(plain) + len(traced_reps),
            "harness.unattributed_share": statistics.median(
                s["harness.body"][1]
                / (t.agg[("harness.body", None)][1] - s["harness.calibration"][1])
                for s, t in zip(rep_stats, tracers)),
        })
        metrics = {
            decl["name"]: {"value": values.get(decl["name"], 0), "unit": decl["unit"]}
            for decl in self.bench["per_layer"]
        }
        out = self.result(metrics)
        out["spans"] = {
            "setup": setup_tracer.to_json(),
            "body": [t.to_json() for t in tracers],
        }
        return out


def measure(args) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("ledger: no src/repro beside the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    with scratch_dir("run-") as tmp:
        run = Run(args.workload, args.seed, args.seconds, args.smoke, tmp)
        result = run.per_layer() if args.trace else run.end_to_end()
    for name, m in result["metrics"].items():
        print(f"{args.workload:18s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    if args.out:
        detail = {
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "workloads": {args.workload: {
                ("per_layer" if args.trace else "end_to_end"): result["metrics"],
                **{k: v for k, v in result.items() if k != "metrics"},
            }},
        }
        with open(args.out, "w") as fh:
            json.dump(detail, fh, indent=1)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def run_all(args, workloads: list[str]) -> int:
    """Each workload in its own child process; one merged table."""
    merged: dict = {"seed": args.seed, "seconds": args.seconds,
                    "smoke": args.smoke, "workloads": {}}
    status = 0
    with scratch_dir("all-") as tmp:
        for name in workloads:
            entry = merged["workloads"][name] = {
                "attempted": 0, "failed": 0, "failed_checks": [], "correct": True}
            for trace in (0, 1) if args.traced else (0,):
                out = os.path.join(tmp, f"{name}-{trace}.json")
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", out]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
                if proc.returncode != 0 or not os.path.exists(out):
                    print(f"ledger: {name} (trace {trace}) exited "
                          f"{proc.returncode}", file=sys.stderr)
                    status = 1
                    entry["correct"] = False
                    continue
                with open(out) as fh:
                    part = json.load(fh)["workloads"][name]
                for key in ("attempted", "failed", "failed_checks"):
                    part[key] = entry[key] + part[key]
                part["correct"] = entry["correct"] and part["correct"]
                entry.update(part)
    for name, entry in merged["workloads"].items():
        print(f"{name}: {entry['attempted']} operations, {entry['failed']} failed, "
              f"checks {'ok' if entry['correct'] else entry['failed_checks']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1)
    return status


def main(argv=None) -> int:
    bench, _ = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="measure this workload here (default: all, one child each)")
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds mesh jitter, fault plans and the arrival trace")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="how long the timed repetitions run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run, reporting the per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help="without --workload: also make the traced runs")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness's own tests")
    ap.add_argument("--out", metavar="FILE",
                    help="also write the results (with quartiles, raw seconds "
                         "and, when traced, the spans) as JSON")
    args = ap.parse_args(argv)
    if args.workload:
        if args.traced:
            args.trace = 1
        return measure(args)
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
