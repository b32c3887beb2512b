"""PERSIST002's linked view - class summaries, MRO and same-receiver
edges (:mod:`repro.analysis.callgraph`) - snapshot completeness on
fixtures and on the shipped repo, direct-site reporting of the other
rules, and the single-parse engine contract."""

from pathlib import Path

import pytest

from repro.analysis import LintEngine
from repro.analysis.callgraph import Program, extract_summary
from repro.analysis.engine import load_module, parse_count
from repro.analysis.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
SRC = Path(__file__).parent.parent / "src" / "repro"


def _lint(name: str):
    return LintEngine().lint_paths([FIXTURES / name])


#: fixture -> exactly the rule ids it must fire.
INTERPROC_FIXTURES = {
    "persist002_bad.py": {"PERSIST002"},
    "persist002_clean.py": set(),
    "persist002_suppressed.py": set(),
    "persist002_transient.py": set(),
    "persist002_program_bad.py": {"PERSIST002"},
    "persist002_program_clean.py": set(),
    "persist002_inherited_bad.py": {"PERSIST002"},
    "det001_chain_bad.py": {"DET001"},
    "det001_chain_suppressed.py": set(),
}


class TestInterprocFixtures:
    @pytest.mark.parametrize("name", sorted(INTERPROC_FIXTURES))
    def test_fixture_fires_exactly_its_rules(self, name):
        got = {v.rule for v in _lint(name)}
        assert got == INTERPROC_FIXTURES[name], f"{name}: {got}"

    def test_persist002_catches_unpersisted_field(self):
        vs = _lint("persist002_bad.py")
        attrs = {v.message.split("`")[1] for v in vs}
        assert attrs == {"Window.phase", "Window.rtt_ewma"}

    def test_persist002_resolves_helper_mediated_write(self):
        """`phase` is only assigned in a module-level helper: the
        finding must exist and carry the call chain through it."""
        vs = _lint("persist002_bad.py")
        phase = [v for v in vs if "Window.phase" in v.message]
        assert phase and any("._tick" in link for link in phase[0].chain)

    def test_persist002_checks_a_program_that_names_its_own_state(self):
        vs = _lint("persist002_program_bad.py")
        attrs = {v.message.split("`")[1] for v in vs}
        assert attrs == {"Program._applied", "Program._keys"}

    def test_persist002_checks_a_class_that_inherits_state_dict(self):
        """The subclass defines no ``state_dict`` of its own; what only
        it assigns is still checked against the one it inherits."""
        vs = _lint("persist002_inherited_bad.py")
        assert [(v.line, v.message.split("`")[1]) for v in vs] == [
            (24, "Coarse._clusters"),
        ]

    def test_persist002_flags_a_transport_field_dropped_from_state_dict(
        self, tmp_path
    ):
        """The shipped transport with ``_wire_seq`` left out of its
        snapshot pair: the durability suites still pass on such a
        tree, PERSIST002 does not."""
        text = (SRC / "runtime" / "transport.py").read_text()
        for line in ('            "wire_seq": self._wire_seq,\n',
                     '        self._wire_seq = d["wire_seq"]\n'):
            assert text.count(line) == 1
            text = text.replace(line, "")
        f = tmp_path / "transport.py"
        f.write_text(text)
        vs = LintEngine().lint_file(f)
        assert [v.message.split("`")[1] for v in vs] == ["Transport._wire_seq"]

    def test_callers_of_a_flagged_site_are_not_reported(self):
        vs = _lint("det001_chain_bad.py")
        assert [(v.line, v.chain) for v in vs] == [(10, ())]

    def test_blessing_the_direct_site_clears_the_cone(self):
        assert _lint("det001_chain_suppressed.py") == []


# -- call graph mechanics --------------------------------------------------------


def _program(tmp_path, source, name="m.py"):
    f = tmp_path / name
    f.write_text(source)
    return Program([extract_summary(load_module(f))])


class TestCallGraph:
    def test_method_resolution_through_hierarchy(self, tmp_path):
        prog = _program(tmp_path, (
            "# repro: module=m\n"
            "class Base:\n"
            "    def ping(self):\n"
            "        return 1\n"
            "class Child(Base):\n"
            "    def pong(self):\n"
            "        return self.ping()\n"
        ))
        assert prog.resolve_method("m.Child", "ping").qname == "m.Base.ping"
        pong = prog.resolve_method("m.Child", "pong")
        assert pong.facts.self_calls == [(7, "ping")]

    def test_self_call_resolves_on_the_checked_class(self, tmp_path):
        """``self.hook()`` in a base method reaches the subclass
        override: the receiver is the object being checked."""
        prog = _program(tmp_path, (
            "# repro: module=m\n"
            "class Base:\n"
            "    def step(self):\n"
            "        self.hook()\n"
            "    def hook(self):\n"
            "        pass\n"
            "class Child(Base):\n"
            "    def hook(self):\n"
            "        self.x = 1\n"
        ))
        step = prog.resolve_method("m.Child", "step")
        assert prog.reach("m.Base", step, ("write",)) == {}
        chain = prog.reach("m.Child", step, ("write",))["x"]
        assert [(fn.qname, line) for fn, line in chain] == [
            ("m.Base.step", 4), ("m.Child.hook", 9),
        ]

    def test_other_receivers_are_not_followed(self, tmp_path):
        """Only ``self.m()`` and ``helper(self)`` are edges: a call on
        another object never adds to the checked class's surface."""
        prog = _program(tmp_path, (
            "# repro: module=m\n"
            "class Sink:\n"
            "    def put(self):\n"
            "        self.y = 1\n"
            "class Layer:\n"
            "    def __init__(self):\n"
            "        self.sink = Sink()\n"
            "    def go(self, other):\n"
            "        self.sink.put()\n"
            "        other.put()\n"
        ))
        go = prog.resolve_method("m.Layer", "go")
        assert go.facts.self_calls == [] and go.facts.helper_calls == []
        assert prog.surface("m.Layer") == {}


# -- engine contracts ------------------------------------------------------------


class TestEngineContracts:
    def test_single_parse_per_file(self, tmp_path):
        """One lint run parses each file exactly once, with the class
        summaries and every rule enabled."""
        for i in range(3):
            (tmp_path / f"m{i}.py").write_text(
                f"# repro: module=m{i}\n"
                "def f():\n"
                "    return 0\n"
            )
        before = parse_count()
        LintEngine().lint_paths([tmp_path])
        assert parse_count() - before == 3

    def test_allow_on_decorated_def_header_covers_body(self, tmp_path):
        f = tmp_path / "deco.py"
        f.write_text(
            "import time\n"
            "import functools\n"
            "@functools.lru_cache  # repro: allow[DET001]\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def naked():\n"
            "    return time.time()\n"
        )
        vs = LintEngine().lint_paths([f])
        assert [v.line for v in vs] == [7]  # only the uncovered def

    def test_allow_on_class_header_covers_methods(self, tmp_path):
        f = tmp_path / "cls.py"
        f.write_text(
            "import time\n"
            "class Stamps:  # repro: allow[DET001]\n"
            "    def stamp(self):\n"
            "        return time.time()\n"
        )
        assert LintEngine().lint_paths([f]) == []

    def test_registry_has_one_class_per_id(self):
        assert [r.id for r in ALL_RULES] == [
            "DET001", "DET002", "DET003", "DET004",
            "PROTO001", "PERSIST001", "PERSIST002",
        ]
        assert len({type(r) for r in ALL_RULES}) == len(ALL_RULES)


# -- PERSIST002 on the real repo -------------------------------------------------


@pytest.fixture(scope="module")
def src_program():
    return LintEngine(rules=[]).load_modules([SRC])[0].program


class TestEffectsOnShippedRepo:
    def test_state_dict_coverage_resolved_for_simulator(self, src_program):
        q = "repro.runtime.simulator.Simulator"
        assert "_events" in src_program.covered(q)
        transient = src_program.transient(q)
        assert {"_progress", "_sealed"} <= transient

    @pytest.mark.parametrize("qname, core, rebuilt", [
        ("repro.sweep.sweep_program.SweepPatchProgram",
         {"_counts", "_heap", "_solved", "_outstreams", "_applied", "clusters"},
         {"_keys", "_vertices", "_edges", "_pops", "_inputs"}),
        # The coarse program inherits its capture and adds no state.
        ("repro.sweep.coarsened.CoarsenedSweepProgram",
         {"_counts", "_heap", "_solved", "_outstreams", "_applied", "clusters"},
         {"_keys", "_vertices", "_edges", "_pops", "_inputs"}),
    ])
    def test_sweep_programs_are_checked_state_dict_owners(
        self, src_program, qname, core, rebuilt
    ):
        """An explicit ``state_dict`` gives up "copies every attribute":
        PERSIST002 owns that guarantee now.  The mutable core is
        covered, the rebuilt attributes are transient, nothing else is
        assigned outside ``__init__``."""
        owner = src_program.resolve_method(qname, "state_dict")
        assert owner.qname == (
            "repro.sweep.sweep_program.SweepPatchProgram.state_dict"
        )
        assert core <= src_program.covered(qname)
        assert rebuilt <= src_program.transient(qname)
        assert set(src_program.surface(qname)) == core | rebuilt
        assert src_program.uncovered(qname) == {}
