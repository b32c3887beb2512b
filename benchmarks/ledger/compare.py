#!/usr/bin/env python3
"""Compare two ledger result files (``run.py --out``), metric by metric.

    python3 benchmarks/ledger/compare.py BASE.json NEW.json

Prints, per (workload, end-to-end metric), the base value, the new
value, their ratio and one verdict, using the directions and bounds of
``BENCHMARK.json`` and the metric kinds of ``ledger.json``:

* ``ok``         - exact-kind metrics are equal; host-kind metrics are
  no worse than the base by more than the bound;
* ``regressed``  - an exact-kind metric differs, or a host-kind metric
  is worse than the base by more than its bound;
* ``unresolved`` - the repetitions of either run spread (q3 - q1 over
  the median) wider than the bound, so the two runs cannot tell.

The two files must hold the same seed and sizes.  Exits non-zero when
anything regressed, when the operation counts differ or when a
correctness check failed in either file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _spread(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(decl: dict, kind: str, base: dict, new: dict) -> str:
    """One of ``ok`` / ``regressed`` / ``unresolved`` for one metric."""
    b, n = base["value"], new["value"]
    if kind == "exact":
        return "ok" if b == n else "regressed"
    bound = decl["bound"]
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    worse = (n - b) / b if decl["better"] == "lower" else (b - n) / b
    return "regressed" if worse > bound else "ok"


def compare(base: dict, new: dict, bench: dict, ledger: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, base, new, ratio, verdict)`` and whether
    the two files agree."""
    rows = []
    agree = True
    for key in ("seed", "smoke"):
        if base.get(key) != new.get(key):
            print(f"compare: the files differ in {key}: "
                  f"{base.get(key)!r} vs {new.get(key)!r}", file=sys.stderr)
            agree = False
    for w in bench["workloads"]:
        name = w["name"]
        a, b = base["workloads"].get(name), new["workloads"].get(name)
        if a is None or b is None or "end_to_end" not in a or "end_to_end" not in b:
            continue
        for side, entry in (("base", a), ("new", b)):
            if not entry["correct"]:
                print(f"compare: {name}: failed checks in {side}: "
                      f"{entry['failed_checks']}", file=sys.stderr)
                agree = False
        ops = [(e["ops_per_rep"], e["failed_per_rep"]) for e in (a, b)]
        if ops[0] != ops[1]:
            print(f"compare: {name}: operations attempted/failed per repetition "
                  f"differ: {ops[0]} vs {ops[1]}", file=sys.stderr)
            agree = False
        for decl in bench["end_to_end"]:
            info = ledger["end_to_end"][decl["name"]]
            if name not in info["workloads"]:
                continue
            x, y = a["end_to_end"][decl["name"]], b["end_to_end"][decl["name"]]
            v = verdict(decl, info["kind"], x, y)
            agree = agree and v != "regressed"
            rows.append((name, decl["name"], x["value"], y["value"],
                         y["value"] / x["value"], v))
    return rows, agree


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "ledger.json")) as fh:
        ledger = json.load(fh)
    rows, agree = compare(base, new, bench, ledger)
    print(f"{'workload':18s} {'metric':22s} {'base':>14s} {'new':>14s} {'ratio':>8s}  verdict")
    for w, m, x, y, r, v in rows:
        print(f"{w:18s} {m:22s} {x:14.6g} {y:14.6g} {r:8.4f}  {v}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
