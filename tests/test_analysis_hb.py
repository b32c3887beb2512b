"""The happens-before checker: golden runtime scenarios are race-free,
the racy fixture is flagged with the offending commit named, and every
race kind is demonstrated on a synthetic record stream.

The BSP and KBA baselines bypass the transport entirely (no message
records, no commits), so the HB stream is empty for them by
construction - the checker's coverage boundary is the data-driven
runtime.
"""

import json
import re
from pathlib import Path

import pytest

from repro._util import ReproError
from repro.analysis import check_report, check_trace, dump_hb_json, load_hb_json
from repro.runtime.checker import CTL, HbChecker, _leq
from repro.runtime import DataDrivenRuntime
from tests.test_golden_fixtures import (
    RUNTIME_SCENARIOS,
    _fault_plan,
    _machine,
    _solver,
)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def _traced_run(kind: str, mode: str, faulty: bool):
    machine = _machine()
    cores = 16 if mode == "hybrid" else 8
    nprocs = machine.layout(cores, mode).nprocs
    pset, s = _solver(kind, nprocs)
    plan = _fault_plan() if faulty else None
    progs, _ = s.build_programs(resilient=faulty)
    return DataDrivenRuntime(
        cores, machine=machine, mode=mode, faults=plan, trace=True
    ).run(progs, pset.patch_proc)


def _races(events):
    return check_trace(events)


def _feed_all(events):
    chk = HbChecker()
    for t, kind, detail in events:
        chk.feed(t, kind, detail)
    return chk.finish()


# -- golden matrix: the shipped runtime is race-free -----------------------------


@pytest.mark.parametrize("name", sorted(RUNTIME_SCENARIOS))
def test_golden_scenario_is_race_free(name):
    kind, mode, faulty = RUNTIME_SCENARIOS[name]
    rep = _traced_run(kind, mode, faulty)
    races = check_report(rep)
    assert races == [], "\n".join(r.format() for r in races)
    assert rep.hb_events, "tracing armed but no HB records emitted"
    # HB records ride a separate stream and never pollute the
    # Chrome-export trace.
    assert not any(e.kind.startswith("hb_") for e in rep.trace_events)


def test_adaptive_all_on_run_is_race_free():
    """Demotion armed - its migrations layered on the RTT-estimated
    retransmit timer, stragglers and drops."""
    from repro.runtime import FaultPlan, RecoveryConfig, StragglerWindow
    from tests.test_chaos import _run

    plan = FaultPlan(
        stragglers=(StragglerWindow(1, 0.0, 9e-4, 6.0),),
        p_drop=0.03, seed=3,
    )
    rep, _ = _run(plan, recovery=RecoveryConfig(demotion=True), trace=True)
    assert rep.demotions > 0
    races = check_report(rep)
    assert races == [], "\n".join(r.format() for r in races)
    assert rep.hb_events


# -- fixture traces --------------------------------------------------------------


def test_racy_fixture_is_flagged_naming_the_commit():
    races = check_trace(load_hb_json(FIXTURES / "racy_trace.json"))
    kinds = {r.kind for r in races}
    assert "concurrent-commit" in kinds
    assert "duplicate-delivery" in kinds
    cc = next(r for r in races if r.kind == "concurrent-commit")
    # The diagnosis names the offending commit: program, proc, serial.
    assert cc.subject == "(3,0)"
    assert "proc 1" in cc.message and "serial 8" in cc.message
    assert "proc 0" in cc.message and "serial 7" in cc.message


def test_clean_fixture_is_race_free():
    assert check_trace(load_hb_json(FIXTURES / "clean_trace.json")) == []


def test_dump_load_roundtrip(tmp_path):
    rep = _traced_run("structured", "mpi_only", False)
    path = tmp_path / "hb.json"
    n = dump_hb_json(rep.hb_events, str(path))
    assert n == len(rep.hb_events) > 0
    loaded = load_hb_json(str(path))
    assert len(loaded) == n
    assert check_trace(loaded) == []
    doc = json.loads(path.read_text())
    assert doc["hb_version"] == 1


def test_cli_check_trace_exit_codes(capsys):
    from repro.analysis.__main__ import main

    assert main(["check-trace", str(FIXTURES / "clean_trace.json")]) == 0
    assert "race-free" in capsys.readouterr().out
    assert main(["check-trace", str(FIXTURES / "racy_trace.json")]) == 1
    assert "concurrent-commit" in capsys.readouterr().out


#: file name -> contents (None: the file does not exist).
BAD_TRACES = {
    "missing.json": None,
    "not_json.json": "not json {",
    "no_events.json": '{"a": 1}',
    "bad_record.json": "[[1, 2]]",
}


@pytest.mark.parametrize("name", sorted(BAD_TRACES))
def test_cli_check_trace_bad_file_exits_2_with_one_line(
    tmp_path, capsys, name
):
    from repro.analysis.__main__ import main

    f = tmp_path / name
    if BAD_TRACES[name] is not None:
        f.write_text(BAD_TRACES[name])
    assert main(["check-trace", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"{f}:1: cannot parse: ")
    assert len(err.strip().splitlines()) == 1


def test_cli_check_trace_unknown_record_kind_exits_2(tmp_path, capsys):
    from repro.analysis.__main__ import main

    f = tmp_path / "bogus.json"
    f.write_text('[{"t": 1e-6, "kind": "hb_bogus", "detail": [0]}]')
    assert main(["check-trace", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"{f}:1: cannot parse: ") and "hb_bogus" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_check_trace_wrong_field_count_exits_2(tmp_path, capsys):
    from repro.analysis.__main__ import main

    f = tmp_path / "short.json"
    f.write_text('[{"t": 1e-6, "kind": "hb_send", "detail": []}]')
    assert main(["check-trace", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"{f}:1: cannot parse: ")
    assert "'hb_send'" in err and "(wid, src_proc, dst_proc, [uid])" in err
    assert len(err.strip().splitlines()) == 1


# -- synthetic unit streams: one per race kind -----------------------------------


class TestRaceKinds:
    def test_orphan_delivery(self):
        races = _feed_all([(1e-6, "hb_recv", (99, 0, True, "u"))])
        assert [r.kind for r in races] == ["orphan-delivery"]

    def test_duplicate_delivery(self):
        races = _feed_all([
            (1e-6, "hb_send", (1, 0, 1, "u")),
            (2e-6, "hb_send", (2, 0, 1, "u")),  # retry copy, same uid
            (3e-6, "hb_recv", (1, 1, True, "u")),
            (4e-6, "hb_recv", (2, 1, True, "u")),
        ])
        assert [r.kind for r in races] == ["duplicate-delivery"]

    def test_discarded_duplicate_is_not_a_race(self):
        races = _feed_all([
            (1e-6, "hb_send", (1, 0, 1, "u")),
            (2e-6, "hb_send", (2, 0, 1, "u")),
            (3e-6, "hb_recv", (1, 1, True, "u")),
            (4e-6, "hb_recv", (2, 1, False, "u")),  # dedup'd on arrival
        ])
        assert races == []

    def test_unanchored_epoch_commit(self):
        races = _feed_all([(1e-6, "hb_commit", ("(0,0)", 1, 1, 5))])
        assert [r.kind for r in races] == ["unanchored-epoch-commit"]

    def test_commit_not_after_migration(self):
        # Proc 1 commits in epoch 1 without ever observing the control
        # plane's migration (no requeue/migrate join for proc 1: the
        # migration re-homes onto proc 2, proc 1 is a bystander).
        races = _feed_all([
            (1e-6, "hb_crash", (0,)),
            (2e-6, "hb_migrate", ("(0,0)", 0, 2, 1)),
            (3e-6, "hb_commit", ("(0,0)", 1, 1, 5)),
        ])
        assert [r.kind for r in races] == ["commit-not-after-migration"]

    def test_migration_without_cause(self):
        races = _feed_all([(1e-6, "hb_migrate", ("(0,0)", 0, 1, 1))])
        assert [r.kind for r in races] == ["migration-without-cause"]

    def test_demotion_is_a_valid_migration_cause(self):
        races = _feed_all([
            (1e-6, "hb_demote", (0,)),
            (2e-6, "hb_migrate", ("(0,0)", 0, 1, 1)),
            (3e-6, "hb_commit", ("(0,0)", 1, 1, 5)),
        ])
        assert races == []

    def test_concurrent_commit(self):
        races = _feed_all([
            (1e-6, "hb_commit", ("(0,0)", 0, 0, 1)),
            (2e-6, "hb_commit", ("(0,0)", 1, 0, 2)),
        ])
        assert [r.kind for r in races] == ["concurrent-commit"]

    def test_delivery_edge_orders_commits(self):
        # Same program, same epoch, two procs - but a delivery edge
        # carries proc 0's commit into proc 1's past.
        races = _feed_all([
            (1e-6, "hb_commit", ("(0,0)", 0, 0, 1)),
            (2e-6, "hb_send", (1, 0, 1, "u")),
            (3e-6, "hb_recv", (1, 1, True, "u")),
            (4e-6, "hb_commit", ("(0,0)", 1, 0, 2)),
        ])
        assert races == []

    def test_same_serial_on_two_procs_is_concurrent(self):
        # Every run commits once, so no serial is exempt: two same-epoch
        # commits on different procs with no edge between them race,
        # whatever serial they carry.
        races = _feed_all([
            (1e-6, "hb_commit", ("(0,0)", 1, 0, 5)),
            (2e-6, "hb_commit", ("(0,0)", 0, 0, 5)),
        ])
        assert [r.kind for r in races] == ["concurrent-commit"]


# -- model plumbing --------------------------------------------------------------


class TestClockModel:
    def test_leq(self):
        assert _leq({}, {})
        assert _leq({"a": 1}, {"a": 2, "b": 1})
        assert not _leq({"a": 2}, {"a": 1})
        assert not _leq({"a": 1}, {})

    def test_non_hb_records_are_ignored(self):
        chk = HbChecker()
        chk.feed(1e-6, "run_end", ())
        chk.feed(2e-6, "msg_arrive", ())
        assert chk.records == 0 and chk.finish() == []

    def test_unknown_hb_record_kind_is_refused(self):
        """An ``hb_*`` kind with no handler would leave its invariants
        unchecked: the checker refuses it instead of skipping it -
        including ``hb_promote``, whose record (a demotion undone by
        healthy probes) the runtime no longer writes."""
        chk = HbChecker()
        for kind in ("hb_bogus", "hb_promote"):
            with pytest.raises(ReproError, match=repr(kind)):
                chk.feed(1e-6, kind, (0,))
        assert chk.records == 0

    @pytest.mark.parametrize("kind,detail", [
        ("hb_send", ()), ("hb_crash", (0, 1)), ("hb_recv", (1, 0)),
    ])
    def test_wrong_field_count_is_refused(self, kind, detail):
        """A known kind with too few or too many fields is refused by
        name with its expected fields, not a TypeError from the
        handler call."""
        chk = HbChecker()
        with pytest.raises(ReproError, match=re.escape(repr(kind))) as err:
            chk.feed(1e-6, kind, detail)
        assert "expected (" in str(err.value)
        assert chk.records == 0

    def test_control_plane_is_a_clock_node(self):
        chk = HbChecker()
        chk.feed(1e-6, "hb_crash", (0,))
        assert chk._clocks[CTL][CTL] == 1


# -- baseline boundary -----------------------------------------------------------


def test_baselines_have_no_hb_stream():
    """BSP/KBA results carry no transport records: coverage is vacuous
    there by design, and check_trace on nothing is race-free."""
    from repro.sweep.baselines import BSPSweepResult, KBAResult

    assert not hasattr(BSPSweepResult, "hb_events")
    assert not hasattr(KBAResult, "hb_events")
    assert check_trace([]) == []
