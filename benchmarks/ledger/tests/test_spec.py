"""BENCHMARK.json and ledger.json say the same thing, within the limits."""

import fnmatch
import json
import os
import re

from conftest import LEDGER, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(LEDGER, "ledger.json")) as fh:
        ledger = json.load(fh)
    return bench, ledger


def test_benchmark_json_is_within_the_contract():
    bench, _ = _load()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/ledger"]
    assert bench["command"][1].startswith(bench["paths"][0] + "/")
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_ledger_describes_every_end_to_end_metric_and_workload():
    bench, ledger = _load()
    workloads = {w["name"] for w in bench["workloads"]}
    declared = {m["name"] for m in bench["end_to_end"]}
    assert set(ledger["end_to_end"]) == declared
    for info in ledger["end_to_end"].values():
        assert info["kind"] in ("host", "exact")
        assert info["workloads"] and set(info["workloads"]) <= workloads
    for size in ("full", "smoke"):
        assert set(ledger["sizes"][size]) == workloads


def test_every_per_layer_metric_has_a_moves_entry():
    bench, ledger = _load()
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = [m["name"] for m in bench["per_layer"]]
    for row in ledger["moves"]:
        assert set(row["should_move"]) <= end_to_end, row
        assert set(row["on"]) | set(row["should_not_move_on"]) <= workloads, row
        for pattern in row["layers"]:
            assert fnmatch.filter(per_layer, pattern), f"{pattern} matches nothing"
    for name in per_layer:
        assert any(
            fnmatch.fnmatch(name, pattern)
            for row in ledger["moves"] for pattern in row["layers"]
        ), f"{name} has no moves entry"


def test_every_span_layer_is_declared():
    from tracing import LAYERS

    bench, _ = _load()
    per_layer = {m["name"] for m in bench["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= per_layer
