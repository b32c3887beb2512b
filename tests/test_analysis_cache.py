"""Incremental analysis cache: full-hit byte identity, reverse-
dependency cone invalidation observed through the parse counter, and
signature-based self-invalidation when the rule set changes."""

import shutil
from pathlib import Path

import pytest

from repro.analysis.cache import cached_lint
from repro.analysis.engine import lint_paths, parse_count
from repro.analysis.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def _write_tree(root: Path) -> dict[str, Path]:
    """A three-module import chain: top -> mid -> leaf, plus an
    unrelated island module.  Touching `leaf` must invalidate the
    whole chain but never the island."""
    files = {}
    files["leaf"] = root / "leaf.py"
    files["leaf"].write_text(
        "# repro: module=pkg.leaf\n"
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    files["mid"] = root / "mid.py"
    files["mid"].write_text(
        "# repro: module=pkg.mid\n"
        "from pkg.leaf import stamp\n"
        "def relay():\n"
        "    return stamp()\n"
    )
    files["top"] = root / "top.py"
    files["top"].write_text(
        "# repro: module=pkg.top\n"
        "from pkg.mid import relay\n"
        "def entry():\n"
        "    return relay()\n"
    )
    files["island"] = root / "island.py"
    files["island"].write_text(
        "# repro: module=pkg.island\n"
        "def alone():\n"
        "    return 42\n"
    )
    return files


@pytest.fixture
def tree(tmp_path):
    return _write_tree(tmp_path)


def _run(tmp_path, cache):
    return cached_lint([tmp_path], cache)


class TestCacheHit:
    def test_warm_hit_is_byte_identical_and_parse_free(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        cold = _run(tmp_path, cache)
        assert cold, "the tree seeds DET001 findings"

        before = parse_count()
        warm = _run(tmp_path, cache)
        assert parse_count() - before == 0, "full hit must not parse"
        assert [v.to_dict() for v in warm] == [v.to_dict() for v in cold]

    def test_cached_equals_uncached(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        cached = _run(tmp_path, cache)
        plain = lint_paths([tmp_path])
        assert [v.to_dict() for v in cached] == [v.to_dict() for v in plain]

    def test_fixture_findings_survive_the_cache_verbatim(self, tmp_path):
        for name in ("det001_chain_bad.py", "persist002_bad.py"):
            shutil.copy(FIXTURES / name, tmp_path / name)
        cache = tmp_path / "cache.json"
        cold = _run(tmp_path, cache)
        warm = _run(tmp_path, cache)
        assert [v.to_dict() for v in warm] == [v.to_dict() for v in cold]
        assert {v.rule for v in warm} == {"DET001", "PERSIST002"}


class TestConeInvalidation:
    def test_touch_leaf_reparses_only_its_cone(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        _run(tmp_path, cache)

        tree["leaf"].write_text(
            "# repro: module=pkg.leaf\n"
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def extra():\n"
            "    return 0\n"
        )
        before = parse_count()
        _run(tmp_path, cache)
        # leaf + mid + top re-parse; the island stays cached.
        assert parse_count() - before == 3

    def test_touch_island_reparses_one_file(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        _run(tmp_path, cache)

        tree["island"].write_text(
            "# repro: module=pkg.island\n"
            "def alone():\n"
            "    return 43\n"
        )
        before = parse_count()
        _run(tmp_path, cache)
        assert parse_count() - before == 1

    def test_touch_top_does_not_reparse_leaf(self, tmp_path, tree):
        """Dependencies flow one way: editing a downstream consumer
        never invalidates what it imports."""
        cache = tmp_path / "cache.json"
        _run(tmp_path, cache)

        tree["top"].write_text(
            "# repro: module=pkg.top\n"
            "from pkg.mid import relay\n"
            "def entry():\n"
            "    return relay() + 1\n"
        )
        before = parse_count()
        _run(tmp_path, cache)
        assert parse_count() - before == 1

    def test_findings_update_after_edit(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        cold = _run(tmp_path, cache)
        n_cold = len(cold)

        # The direct-site blessing clears the transitive cone too.
        tree["leaf"].write_text(
            "# repro: module=pkg.leaf\n"
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow[DET001]\n"
        )
        warm = _run(tmp_path, cache)
        assert warm == []
        assert n_cold > 0

    def test_deleted_file_drops_from_results(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        _run(tmp_path, cache)
        tree["island"].unlink()
        warm = _run(tmp_path, cache)
        assert not any("island" in v.path for v in warm)


class TestSignature:
    def test_rule_set_change_invalidates(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        _run(tmp_path, cache)

        before = parse_count()
        # A different rule list has a different signature: full re-run.
        cached_lint([tmp_path], cache, rules=ALL_RULES[:-1])
        assert parse_count() - before == 4

    def test_corrupt_cache_falls_back_to_cold(self, tmp_path, tree):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        vs = _run(tmp_path, cache)
        plain = lint_paths([tmp_path])
        assert [v.to_dict() for v in vs] == [v.to_dict() for v in plain]
