"""Every workload, at its smoke size, through the real command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import LEDGER, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RUN = os.path.join(LEDGER, "run.py")


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace, tmp_path):
    out = tmp_path / "out.json"
    proc = _run("--workload", workload, "--smoke", "--seconds", "0.5",
                "--trace", str(trace), "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] != 0, m["name"]
    detail = json.loads(out.read_text())["workloads"][workload]
    if trace:
        assert detail["spans"]["body"] and detail["spans"]["setup"]["aggregated"]
        # Layer self times, the root's own and the calibration add up
        # to the traced body by construction; little may be unattributed.
        assert result["metrics"]["harness.unattributed_share"]["value"] < 0.25
    assert not os.path.exists(os.path.join(LEDGER, ".scratch"))


def test_two_runs_of_one_seed_agree_on_every_exact_metric(tmp_path):
    import compare

    outs = []
    for i in range(2):
        out = tmp_path / f"{i}.json"
        proc = _run("--workload", "reactor_resilient", "--smoke", "--seconds", "0.5",
                    "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(out.read_text()))
    with open(os.path.join(LEDGER, "ledger.json")) as fh:
        ledger = json.load(fh)
    rows, _ = compare.compare(outs[0], outs[1], BENCH, ledger)
    exact = [r for r in rows if ledger["end_to_end"][r[1]]["kind"] == "exact"]
    assert exact and all(r[5] == "ok" and r[2] == r[3] for r in exact)
    outs[1]["workloads"]["reactor_resilient"]["end_to_end"]["makespan"]["value"] *= 1.0001
    rows, agree = compare.compare(outs[0], outs[1], BENCH, ledger)
    assert not agree
    assert [r[5] for r in rows if r[1] == "makespan"] == ["regressed"]


def test_compare_verdicts():
    import compare

    decl = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}
    tight = {"value": 1.0, "q1": 0.99, "q3": 1.01}
    assert compare.verdict(decl, "host", tight, {"value": 1.05, "q1": 1.04, "q3": 1.06}) == "ok"
    assert compare.verdict(decl, "host", tight, {"value": 1.2, "q1": 1.19, "q3": 1.21}) == "regressed"
    assert compare.verdict(decl, "host", tight, {"value": 1.2, "q1": 1.0, "q3": 1.4}) == "unresolved"
    up = dict(decl, better="higher")
    assert compare.verdict(up, "host", tight, {"value": 0.8, "q1": 0.79, "q3": 0.81}) == "regressed"
    assert compare.verdict(up, "host", tight, {"value": 1.3, "q1": 1.29, "q3": 1.31}) == "ok"
    assert compare.verdict(decl, "exact", {"value": 2.0}, {"value": 2.0}) == "ok"
    assert compare.verdict(decl, "exact", {"value": 2.0}, {"value": 2.0000001}) == "regressed"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".scratch", ".pytest_cache"),
    )
    script = str(tmp_path / "benchmarks" / "ledger" / "run.py")
    proc = _run("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path), script=script)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
