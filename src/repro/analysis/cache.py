"""Content-hash incremental cache for the lint engine.

The lint parses and summarizes every module in ``src/repro``; on a
pre-commit hook or a blocking CI job that cost is paid on every run
even though almost nothing changed.  This cache makes the common
case cheap without ever changing the answer:

* Each module's cache entry is keyed by the sha256 **digest of its
  source text** and stores its phase-1
  :class:`~repro.analysis.callgraph.ModuleSummary` plus its per-module
  findings.
* On a warm run, only the **reverse-dependency cone** of the edited
  modules is re-parsed and re-checked: the edited files, plus every
  module that (transitively) imports one of them - import edges bound
  call edges, so anything whose inferred effects could have changed is
  inside the cone.  Modules whose cached findings carry a provenance
  chain through an edited file are pulled in too (covers the bounded
  dynamic-dispatch edges, which may cross modules without imports).
* Unchanged modules contribute their cached summaries to the program
  link (so the whole-program view is complete without re-parsing) and
  their cached findings verbatim.
* Program-scope findings (PROTO004) are recomputed whenever *anything*
  changed - cross-module findings may land outside the cone - and
  reused verbatim on a full hit.
* The cache self-invalidates on a version bump or a different rule
  set, and a corrupt or unreadable file degrades to a cold run.  A
  source that does not parse raises before anything is written.

Everything between the lookup and the write-back is the engine's own
driver (:meth:`LintEngine.lint_files`), handed the reusable entries.

Warm results are byte-identical to a cold run - pinned by
``tests/test_analysis_cache.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .callgraph import ModuleSummary
from .engine import LintEngine, Violation, _sort_key

__all__ = ["cached_lint", "CACHE_VERSION"]

CACHE_VERSION = 2  # 2: effect sites carry (line, col, note)


def _signature(rules) -> dict:
    return {
        "version": CACHE_VERSION,
        "rules": sorted({f"{r.id}:{type(r).__name__}" for r in rules}),
    }


def _load(cache_path: Path) -> dict | None:
    try:
        data = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "modules" not in data:
        return None
    return data


def _store(cache_path: Path, data: dict) -> None:
    tmp = cache_path.with_suffix(cache_path.suffix + ".tmp")
    try:
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, cache_path)
    except OSError:
        pass  # an unwritable cache is a perf bug, not a lint failure


def _chain_paths(entry: dict) -> set[str]:
    """Source paths referenced by the entry's finding chains."""
    out: set[str] = set()
    for v in entry.get("findings", ()):
        for link in v.get("chain", ()):
            loc = link.rsplit(" (", 1)
            if len(loc) == 2:
                out.add(loc[1].rstrip(")").rpartition(":")[0])
    return out


def cached_lint(paths, cache_path, rules=None) -> list[Violation]:
    """Lint ``paths`` through the incremental cache at ``cache_path``."""
    engine = LintEngine(rules)
    cache_file = Path(cache_path)
    files = [str(f) for f in engine.collect_files(list(paths))]
    current = set(files)

    sig = _signature(engine.rules)
    data = _load(cache_file)
    if data is not None and data.get("signature") != sig:
        data = None
    cached: dict[str, dict] = dict(data["modules"]) if data else {}

    digests = {p: _digest(p) for p in files}
    changed = {
        p for p in files
        if p not in cached or cached[p].get("digest") != digests[p]
    }
    removed = set(cached) - current

    # Full hit: no parsing at all, cached findings verbatim.
    if data is not None and not changed and not removed:
        out = [
            Violation.from_dict(v)
            for p in files
            for v in cached[p]["findings"]
        ]
        out.extend(
            Violation.from_dict(v)
            for v in data.get("program_findings", ())
        )
        out.sort(key=_sort_key)
        return out

    cone = _cone(changed, removed, cached, current)
    mods, findings, program_findings = engine.lint_files(files, {
        p: (
            ModuleSummary.from_dict(cached[p]["summary"]),
            [Violation.from_dict(v) for v in cached[p]["findings"]],
        )
        for p in files
        if p not in cone
    })

    # Write back: fresh entries for the cone, carried-over for the rest.
    entries = {p: cached[p] for p in files if p not in cone}
    for m in mods:
        entries[m.path] = {
            "digest": m.digest,
            "summary": m.summary.to_dict(),
            "findings": [v.to_dict() for v in findings[m.path]],
        }
    _store(cache_file, {
        "signature": sig,
        "modules": entries,
        "program_findings": [v.to_dict() for v in program_findings],
    })

    out = [v for vs in findings.values() for v in vs]
    out.extend(program_findings)
    out.sort(key=_sort_key)
    return out


def _digest(path: str) -> str:
    try:
        source = Path(path).read_text()
    except (OSError, UnicodeDecodeError):
        return ""  # never equals a stored digest: load_module reports it
    return hashlib.sha256(source.encode()).hexdigest()


def _cone(
    changed: set[str],
    removed: set[str],
    cached: dict[str, dict],
    current: set[str],
) -> set[str]:
    """Paths whose findings must be recomputed: the reverse-import
    closure of the edited/removed modules, plus any module whose
    cached finding chains pass through an edited file."""
    cone = set(changed)
    name_of = {p: e["summary"]["module"] for p, e in cached.items()}
    dirty_names = {
        name_of[p] for p in (changed | removed) if p in name_of
    }
    dirty_paths = set(changed) | removed
    grew = True
    while grew:
        grew = False
        for p, e in cached.items():
            if p in cone or p not in current:
                continue
            if (
                set(e["summary"]["deps"]) & dirty_names
                or _chain_paths(e) & dirty_paths
            ):
                cone.add(p)
                dirty_names.add(name_of[p])
                dirty_paths.add(p)
                grew = True
    return cone
