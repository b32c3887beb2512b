"""Whole-program analysis: call graph, effect inference, the
propagated half of the DET/DES/PROTO rules, PERSIST002 snapshot
completeness, PROTO004 event-protocol exhaustiveness, the
single-parse engine contract, and the effect database on the
shipped repo."""

import json
from pathlib import Path

import pytest

from repro.analysis import LintEngine
from repro.analysis.callgraph import Program, extract_summary
from repro.analysis.effects import EffectDB, effect_db
from repro.analysis.engine import load_module, parse_count, render_sarif
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
    "proto004_bad.py": {"PROTO004"},
    "proto004_clean.py": set(),
    "proto004_suppressed.py": set(),
    "proto004_unregistered_bad.py": {"PROTO004"},
    "det001_chain_bad.py": {"DET001"},
    "det001_chain_suppressed.py": set(),
    "des001_chain_bad.py": {"DES001"},
    "proto002_launder_bad.py": {"PROTO002"},
    "det003_deep_bad.py": {"DET003"},
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

    def test_chain_rides_in_the_finding(self):
        vs = _lint("det001_chain_bad.py")
        deepest = max(vs, key=lambda v: len(v.chain))
        assert len(deepest.chain) == 3  # caller -> helper -> _stamp
        assert "caller" in deepest.chain[0]
        assert "_stamp" in deepest.chain[-1]

    def test_blessing_the_direct_site_clears_the_cone(self):
        assert _lint("det001_chain_suppressed.py") == []

    def test_call_site_allow_silences_that_site_only(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def blessed():\n"
            "    return stamp()  # repro: allow[DET001]\n"
            "def other():\n"
            "    return stamp()\n"
        )
        vs = LintEngine().lint_file(f)
        assert [(v.line, len(v.chain)) for v in vs] == [(3, 0), (7, 2)]

    def test_proto004_reports_all_three_hole_kinds(self):
        msgs = [v.message for v in _lint("proto004_bad.py")]
        assert any("pushed but no dispatch" in m for m in msgs)
        assert any("but nothing pushes" in m for m in msgs)
        assert any("unknown to the HB checker" in m for m in msgs)

    def test_proto004_follows_the_kind_table(self):
        """A KindRow registration is the dispatch side: the registered
        kind is clean, the pushed-but-unregistered one is flagged."""
        msgs = [v.message for v in _lint("proto004_unregistered_bad.py")]
        assert len(msgs) == 1 and "'tack'" in msgs[0]
        assert "pushed but no dispatch" in msgs[0]

    def test_counter_laundering_names_the_owner(self):
        vs = _lint("proto002_launder_bad.py")
        assert len(vs) == 1
        assert "retries" in vs[0].message
        assert "repro.runtime.transport" in vs[0].message

    def test_det003_two_hops_past_the_loop_body(self):
        vs = _lint("det003_deep_bad.py")
        assert len(vs) == 1 and vs[0].rule == "DET003"
        # Not in the loop body, not one call away: found through the
        # call graph, with the chain down to the push.
        assert len(vs[0].chain) == 2 and "_emit" in vs[0].chain[-1]


# -- call graph mechanics --------------------------------------------------------


class TestCallGraph:
    def _program(self, tmp_path, source, name="m.py"):
        f = tmp_path / name
        f.write_text(source)
        mod = load_module(f)
        return Program([extract_summary(mod)])

    def test_method_resolution_through_hierarchy(self, tmp_path):
        prog = self._program(tmp_path, (
            "# repro: module=m\n"
            "class Base:\n"
            "    def ping(self):\n"
            "        return 1\n"
            "class Child(Base):\n"
            "    def pong(self):\n"
            "        return self.ping()\n"
        ))
        assert prog.resolve_method("m.Child", "ping") == "m.Base.ping"
        edges = prog.calls["m.Child.pong"]
        assert edges[0][1] == ("m.Base.ping",)

    def test_receiver_typing_from_constructor_assignment(self, tmp_path):
        prog = self._program(tmp_path, (
            "# repro: module=m\n"
            "class Sim:\n"
            "    def push(self, t, kind, data):\n"
            "        return None\n"
            "class Layer:\n"
            "    def __init__(self):\n"
            "        self.sim = Sim()\n"
            "    def go(self):\n"
            "        self.sim.push(0.0, 'x', None)\n"
        ))
        edges = prog.calls["m.Layer.go"]
        assert edges[0][1] == ("m.Sim.push",)

    def test_dynamic_fallback_is_bounded(self, tmp_path):
        classes = "\n".join(
            f"class C{i}:\n    def frob(self):\n        return {i}"
            for i in range(5)
        )
        prog = self._program(tmp_path, (
            "# repro: module=m\n"
            f"{classes}\n"
            "def use(obj):\n"
            "    return obj.frob()\n"
        ))
        # 5 same-name candidates > bound of 3: the edge is dropped and
        # counted instead of fanning out wrongly.
        assert prog.calls["m.use"][0][1] == ()
        assert prog.unresolved_dynamic == 1

    def test_effects_fixed_point_propagates_and_chains(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "# repro: module=m\n"
            "import time\n"
            "def a():\n"
            "    return time.time()\n"
            "def b():\n"
            "    return a()\n"
            "def c():\n"
            "    return b()\n"
        )
        mod = load_module(f)
        db = EffectDB(Program([extract_summary(mod)]))
        eff = db.with_kind("m.c", "wall")
        assert len(eff) == 1
        assert len(eff[0].chain) == 3 and not eff[0].direct
        assert db.with_kind("m.a", "wall")[0].direct

    def test_finding_crosses_modules_through_dynamic_dispatch(self, tmp_path):
        """No import links the two files: only the bounded dynamic
        fallback carries ``obj.stamp_it()`` to the one class that
        ships it, and the wall-clock read rides back into ``n``."""
        (tmp_path / "n.py").write_text(
            "def on_tick(now, obj):\n"
            "    return obj.stamp_it()\n"
        )
        (tmp_path / "m.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "class M:\n"
            "    def stamp_it(self):\n"
            "        return time.time()\n"
        )
        vs = LintEngine().lint_paths([tmp_path])
        at_n = [
            v for v in vs
            if v.path == str(tmp_path / "n.py") and v.rule == "DET001"
        ]
        assert [v.line for v in at_n] == [2]
        assert at_n[0].chain[0].startswith("n.on_tick ")
        assert at_n[0].chain[-1].startswith("m.M.stamp_it ")
        assert "via: n.on_tick" in at_n[0].format()


# -- engine contracts ------------------------------------------------------------


class TestEngineContracts:
    def test_single_parse_per_file(self, tmp_path):
        """One lint run parses each file exactly once, even with the
        call graph, effect inference, and every rule enabled."""
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

    def test_sarif_rendering(self):
        vs = _lint("det001_chain_bad.py")
        doc = json.loads(render_sarif(vs))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        ids = {r["ruleId"] for r in run["results"]}
        assert ids == {"DET001"}
        chained = [
            r for r in run["results"] if "via:" in r["message"]["text"]
        ]
        assert chained, "chains must surface in SARIF messages"
        for r in run["results"]:
            region = r["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_registry_has_one_class_per_id(self):
        assert {r.id for r in ALL_RULES} >= {
            "DET001", "DET002", "DET003", "DES001",
            "PROTO001", "PROTO002", "PERSIST002", "PROTO004",
        }
        assert len({r.id for r in ALL_RULES}) == len(ALL_RULES)
        assert len({type(r) for r in ALL_RULES}) == len(ALL_RULES)


# -- the effect database on the real repo -----------------------------------------


@pytest.fixture(scope="module")
def src_db():
    mods = LintEngine(rules=[]).load_modules([SRC])
    return effect_db(mods[0].program)


class TestEffectsOnShippedRepo:
    def test_transport_on_timer_has_multi_hop_sink_chain(self, src_db):
        """A real multi-hop chain in shipped code: the retransmit path
        `on_timer -> transmit -> _wire_push` pushes into the wire."""
        q = "repro.runtime.transport.Transport.on_timer"
        sinks = src_db.with_kind(q, "sink")
        assert sinks, "on_timer must carry sink effects"
        deep = max(sinks, key=lambda e: len(e.chain))
        assert len(deep.chain) >= 3  # at least two hops
        assert "on_timer" in deep.chain[0]

    def test_state_dict_coverage_resolved_for_simulator(self, src_db):
        covered = src_db.class_covered("repro.runtime.simulator.Simulator")
        assert "_events" in covered
        transient = src_db.class_transient(
            "repro.runtime.simulator.Simulator"
        )
        assert {"_wd_horizon", "_wd_snapshot", "_sealed"} <= transient


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
        self, src_db, qname, core, rebuilt
    ):
        """An explicit ``state_dict`` gives up "copies every attribute":
        PERSIST002 owns that guarantee now.  The mutable core is
        covered, the rebuilt attributes are transient, nothing else is
        assigned outside ``__init__``."""
        owner = src_db.program.resolve_method(qname, "state_dict")
        assert owner == "repro.sweep.sweep_program.SweepPatchProgram.state_dict"
        covered = src_db.class_covered(qname)
        transient = src_db.class_transient(qname)
        assert core <= covered
        assert rebuilt <= transient
        assert set(src_db.class_swrites(qname)) == core | rebuilt
