"""The lint engine: every rule demonstrated on golden fixtures (and
every fixture's findings pinned row by row), direct-site reporting,
the suppression syntax, the module pragma, unparsable sources, and the
meta-check that the shipped repo itself lints clean."""

import json
from pathlib import Path

import pytest

from repro.analysis import LintEngine, Violation
from repro.analysis.engine import SourceError, load_module, render
from repro.analysis.rules import ALL_RULES, rule_table

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
SRC = Path(__file__).parent.parent / "src" / "repro"

RULE_IDS = [r.id for r in ALL_RULES]

#: rule id -> fixture stem (bad/clean/suppressed triples).
FIXTURE_STEM = {
    "DET001": "det001",
    "DET002": "det002",
    "DET003": "det003",
    "DET004": "det004",
    "PROTO001": "proto001",
    "PERSIST001": "persist001",
    "PERSIST002": "persist002",
}


def _lint(name: str) -> list[Violation]:
    return LintEngine().lint_file(FIXTURES / name)


# -- every rule fires on its golden-violation fixture ----------------------------


class TestRulesTrigger:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_triggers_the_rule(self, rule_id):
        vs = _lint(f"{FIXTURE_STEM[rule_id]}_bad.py")
        assert any(v.rule == rule_id for v in vs), (
            f"{rule_id} did not fire on its bad fixture: {vs}"
        )

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_triggers_nothing_else(self, rule_id):
        """Fixtures are surgical: exactly one rule id per bad file."""
        vs = _lint(f"{FIXTURE_STEM[rule_id]}_bad.py")
        assert {v.rule for v in vs} == {rule_id}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_fixture_is_clean(self, rule_id):
        assert _lint(f"{FIXTURE_STEM[rule_id]}_clean.py") == []

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_suppression_silences_the_rule(self, rule_id):
        assert _lint(f"{FIXTURE_STEM[rule_id]}_suppressed.py") == []

    def test_violations_carry_hint_and_position(self):
        vs = _lint("det001_bad.py")
        assert vs, "expected findings"
        for v in vs:
            assert v.line > 0 and v.hint
            assert str(FIXTURES / "det001_bad.py") == v.path


# -- every fixture's findings, pinned row by row ---------------------------------

EXPECTED = json.loads((FIXTURES / "expected_findings.json").read_text())


class TestSameFindings:
    def test_every_fixture_is_pinned(self):
        assert sorted(EXPECTED) == sorted(
            f.name for f in FIXTURES.glob("*.py")
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_findings_reproduced_exactly(self, name):
        got = sorted(
            [v.rule, v.line, v.col, v.message, len(v.chain)]
            for v in _lint(name)
        )
        assert got == EXPECTED[name]

    def test_module_and_class_body_sites_are_seen(self, tmp_path):
        f = tmp_path / "top.py"
        f.write_text(
            "import time\n"
            "T0 = time.time()\n"
            "class Stamped:\n"
            "    born = time.time()\n"
        )
        vs = LintEngine().lint_file(f)
        assert [(v.rule, v.line, v.col) for v in vs] == [
            ("DET001", 2, 5), ("DET001", 4, 11),
        ]

    def test_every_site_is_reported_not_one_per_function(self, tmp_path):
        f = tmp_path / "twice.py"
        f.write_text(
            "import time\n"
            "def span():\n"
            "    a = time.time()\n"
            "    return time.time() - a\n"
        )
        assert [v.line for v in LintEngine().lint_file(f)] == [3, 4]

    def test_only_the_direct_site_is_reported(self, tmp_path):
        f = tmp_path / "pair.py"
        f.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def caller():\n"
            "    return stamp()\n"
        )
        vs = LintEngine().lint_file(f)
        assert [(v.rule, v.line, v.col, v.chain) for v in vs] == [
            ("DET001", 3, 11, ()),
        ]

    def test_loop_body_is_searched_but_helpers_are_not(self, tmp_path):
        f = tmp_path / "loops.py"
        f.write_text(
            "def _kick(sim, p):\n"
            "    sim.push(0.0, 'kick', p)\n"
            "def direct(sim):\n"
            "    for p in {1, 2}:\n"
            "        if p:\n"
            "            sim.push(0.0, 'kick', p)\n"
            "def through_helper(sim):\n"
            "    for p in {1, 2}:\n"
            "        _kick(sim, p)\n"
        )
        vs = LintEngine().lint_file(f)
        assert [(v.rule, v.line) for v in vs] == [("DET003", 4)]
        assert "event sink `push`" in vs[0].message


# -- engine mechanics ------------------------------------------------------------


class TestEngine:
    def test_wildcard_allow_suppresses_everything(self, tmp_path):
        f = tmp_path / "wild.py"
        f.write_text(
            "import time\n"
            "t = time.time()  # repro: allow[*]\n"
        )
        assert LintEngine().lint_file(f) == []

    def test_standalone_allow_covers_next_code_line(self, tmp_path):
        f = tmp_path / "standalone.py"
        f.write_text(
            "import time\n"
            "# repro: allow[DET001]\n"
            "t = time.time()\n"
            "u = time.time()\n"  # NOT covered
        )
        vs = LintEngine().lint_file(f)
        assert [v.line for v in vs] == [4]

    def test_allow_for_a_different_rule_does_not_suppress(self, tmp_path):
        f = tmp_path / "wrong.py"
        f.write_text("import time\nt = time.time()  # repro: allow[DET002]\n")
        assert [v.rule for v in LintEngine().lint_file(f)] == ["DET001"]

    def test_module_pragma_overrides_path_module(self):
        mod = load_module(FIXTURES / "persist002_bad.py")
        assert mod.module == "repro.runtime.badwindow"

    def test_logical_module_inferred_from_src_path(self):
        mod = load_module(SRC / "runtime" / "transport.py")
        assert mod.module == "repro.runtime.transport"

    def test_render_human_and_json(self):
        vs = _lint("det004_bad.py")
        text = render(vs)
        assert "DET004" in text and "violation(s)" in text
        doc = json.loads(render(vs, as_json=True))
        assert doc["count"] == len(vs) >= 1
        assert doc["violations"][0]["rule"] == "DET004"
        assert render([]) == "repro.analysis: clean"

    def test_rule_table_covers_all_rules(self):
        assert [row["id"] for row in rule_table()] == RULE_IDS
        assert len(set(RULE_IDS)) == len(RULE_IDS)


# -- the CLI ---------------------------------------------------------------------


class TestCli:
    def test_lint_bad_fixture_exits_nonzero(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["lint", str(FIXTURES / "det001_bad.py")])
        assert rc == 1
        assert "DET001" in capsys.readouterr().out

    def test_lint_clean_fixture_exits_zero(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["lint", str(FIXTURES / "det001_clean.py"), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_rules_listing_names_each_id_once(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["lint", "--rules"]) == 0
        listed = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()]
        assert listed == RULE_IDS


# -- sources that cannot be parsed -----------------------------------------------

UNPARSABLE = {
    "syntax": (b"x = 1\ndef broken(:\n    pass\n", 2),
    "bytes": (b"\xff\xfe", 1),
}


class TestUnparsableSource:
    @pytest.mark.parametrize("case", sorted(UNPARSABLE))
    def test_engine_raises_a_structured_error(self, tmp_path, case):
        blob, line = UNPARSABLE[case]
        f = tmp_path / "bad.py"
        f.write_bytes(blob)
        with pytest.raises(SourceError) as err:
            LintEngine().lint_paths([f])
        assert (err.value.path, err.value.line) == (str(f), line)
        assert err.value.message
        assert str(err.value).startswith(f"{f}:{line}: cannot parse: ")

    @pytest.mark.parametrize("case", sorted(UNPARSABLE))
    def test_cli_exits_2_with_one_line(self, tmp_path, capsys, case):
        from repro.analysis.__main__ import main

        blob, line = UNPARSABLE[case]
        (tmp_path / "ok.py").write_text("x = 1\n")
        f = tmp_path / "bad.py"
        f.write_bytes(blob)
        assert main(["lint", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"{f}:{line}: cannot parse: ")
        assert len(err.strip().splitlines()) == 1


# -- the shipped repo lints clean (the CI gate, in-process) ----------------------


def test_shipped_repo_lints_clean():
    """Clean, and not by way of new pragmas: the comment-level
    suppressions and transient marks in ``src`` are counted."""
    eng = LintEngine()
    mods = eng.load_modules([SRC])
    vs = [v for m in mods for v in eng.lint_module(m)]
    assert vs == [], "\n" + render(vs)
    assert sum(len(m.suppressions) for m in mods) == 0
    assert sum(len(m.transient_lines) for m in mods) == 6
