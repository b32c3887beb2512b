"""The lint engine: file loading, suppression parsing, rule dispatch.

The engine turns each Python file into a :class:`ModuleInfo` (source,
AST, comment-level suppressions, logical module name), links the
class summaries of everything it was given into one
:class:`~repro.analysis.callgraph.Program` (the class hierarchy
PERSIST002 resolves methods over), hands each module to every rule,
and filters the returned :class:`Violation`\\ s against the
``# repro: allow[RULE]`` suppressions.  Rules live in
:mod:`repro.analysis.rules` and know nothing about files or comments.
Every file is parsed exactly once per run.

Suppression syntax::

    x = time.time()  # repro: allow[DET001]
    # repro: allow[DET003, PROTO001]   <- alone on a line: covers the
    for p in procs: ...                   next line

``allow[*]`` suppresses every rule on the covered line.  An ``allow``
placed on a ``def``/``class`` header line (or one of its decorator
lines) covers the whole declaration body - the way to bless a short
annotated helper without sprinkling per-line pragmas.

Two more pragmas::

    # repro: module=repro.runtime.scheduler   <- fixture files claim a
                                                 logical module identity
    self._cache = {}  # repro: transient      <- the attribute is rebuilt
                                                 at composition; PERSIST002
                                                 does not require it in
                                                 state_dict()
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .._util import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .callgraph import ModuleSummary, Program
    from .rules import Rule

__all__ = [
    "Violation",
    "ModuleInfo",
    "SourceError",
    "LintEngine",
    "dotted_name",
    "lint_paths",
    "load_module",
    "render",
]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9*,\s]+)\]")
_MODULE_RE = re.compile(r"#\s*repro:\s*module=([A-Za-z0-9_.]+)")
_TRANSIENT_RE = re.compile(r"#\s*repro:\s*transient\b")

#: Files parsed since import (the single-parse regression test pins
#: that one lint run parses each file exactly once, rules included).
_parse_count = 0


def parse_count() -> int:
    return _parse_count


@dataclass(frozen=True)
class Violation:
    """One rule finding, with enough context to act on it.

    ``chain`` is set on a PERSIST002 finding whose write sits in a
    helper: the call path from the class's method down to the write
    (each entry ``"qualified.name (file:line)"``).  A finding at the
    write itself has an empty chain.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    chain: tuple[str, ...] = ()

    def format(self) -> str:
        out = (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message}\n    hint: {self.hint}"
        )
        if self.chain:
            out += "\n    via: " + " -> ".join(self.chain)
        return out

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "chain": list(self.chain),
        }


@dataclass
class ModuleInfo:
    """Everything a rule may want to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    #: logical dotted module name ("repro.runtime.transport"); inferred
    #: from the path or overridden by a ``# repro: module=`` pragma.
    module: str
    #: line -> set of rule ids allowed ("*" = all) on that line.
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: (start, end, rules) ranges from allow[] on def/class headers.
    suppression_blocks: list[tuple[int, int, frozenset[str]]] = field(
        default_factory=list
    )
    #: lines carrying a ``# repro: transient`` pragma (PERSIST002).
    transient_lines: frozenset[int] = frozenset()
    #: the program this module was linked into, set by the engine
    #: before any rule runs (None only on a bare ``load_module``).
    program: "Program | None" = None
    #: this module's class summary, set together with ``program``.
    summary: "ModuleSummary | None" = None

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree, walked once and shared by the rules."""
        return list(ast.walk(self.tree))

    @cached_property
    def calls(self) -> list[tuple[ast.Call, str | None]]:
        """Every call with its dotted callee name (see :func:`dotted_name`)."""
        return [
            (n, dotted_name(n.func)) for n in self.nodes
            if isinstance(n, ast.Call)
        ]

    @cached_property
    def functions(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function and method in the module, nested ones included."""
        defs = (ast.FunctionDef, ast.AsyncFunctionDef)
        return [n for n in self.nodes if isinstance(n, defs)]

    def suppressed(self, rule: str, line: int) -> bool:
        allowed = self.suppressions.get(line, ())
        if rule in allowed or "*" in allowed:
            return True
        for start, end, rules in self.suppression_blocks:
            if start <= line <= end and (rule in rules or "*" in rules):
                return True
        return False


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _logical_module(path: Path) -> str:
    """Dotted module name from a file path (best effort)."""
    parts = list(path.with_suffix("").parts)
    parts = parts[parts.index("repro"):] if "repro" in parts else parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _scan_comments(
    source: str,
) -> tuple[dict[int, set[str]], str | None, frozenset[int]]:
    """Extract suppressions, the module pragma and transient lines."""
    suppressions: dict[int, set[str]] = {}
    module: str | None = None
    transient: set[int] = set()
    if "repro:" not in source:  # no pragma: skip the tokenizer
        return suppressions, module, frozenset(transient)
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenError:
        return suppressions, module, frozenset(transient)
    code_lines = {
        t.start[0]
        for t in tokens
        if t.type
        not in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        )
    }

    def _covered(line: int) -> int | None:
        if line in code_lines:
            return line
        # Comment alone on its line: covers the next code line.
        return min((ln for ln in code_lines if ln > line), default=None)

    for t in tokens:
        if t.type != tokenize.COMMENT:
            continue
        m = _MODULE_RE.search(t.string)
        if m:
            module = m.group(1)
        if _TRANSIENT_RE.search(t.string):
            line = _covered(t.start[0])
            if line is not None:
                transient.add(line)
        m = _ALLOW_RE.search(t.string)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        line = _covered(t.start[0])
        if line is not None:
            suppressions.setdefault(line, set()).update(rules)
    return suppressions, module, frozenset(transient)


def _suppression_blocks(
    tree: ast.Module, suppressions: dict[int, set[str]]
) -> list[tuple[int, int, frozenset[str]]]:
    """Expand allow[] pragmas sitting on def/class headers to blocks.

    A suppression whose covered line is a ``def``/``class`` statement's
    header (or one of its decorator lines) applies to the whole
    declaration - findings inside short annotated bodies can then be
    suppressed at the declaration instead of per line.
    """
    if not suppressions:
        return []
    blocks: list[tuple[int, int, frozenset[str]]] = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        header_lines = {node.lineno}
        header_lines.update(d.lineno for d in node.decorator_list)
        rules: set[str] = set()
        for ln in header_lines:
            rules.update(suppressions.get(ln, ()))
        if rules and node.end_lineno is not None:
            blocks.append((node.lineno, node.end_lineno, frozenset(rules)))
    return blocks


class SourceError(ReproError):
    """A source file that cannot be read, decoded or parsed."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: cannot parse: {message}")
        self.path = path
        self.line = line
        self.message = message


def load_module(path: str | Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`.

    Raises :class:`SourceError` when the file is unreadable, is not
    valid text in the default encoding, or does not parse.
    """
    global _parse_count
    p = Path(path)
    try:
        source = p.read_text()
        _parse_count += 1
        tree = ast.parse(source, filename=str(p))
    except SyntaxError as exc:
        raise SourceError(str(p), exc.lineno or 1, exc.msg) from exc
    except (OSError, ValueError) as exc:  # ValueError: bad bytes, NULs
        raise SourceError(str(p), 1, str(exc)) from exc
    suppressions, pragma, transient = _scan_comments(source)
    return ModuleInfo(
        path=str(p),
        source=source,
        tree=tree,
        module=pragma if pragma is not None else _logical_module(p),
        suppressions=suppressions,
        suppression_blocks=_suppression_blocks(tree, suppressions),
        transient_lines=transient,
    )


def _sort_key(v: Violation) -> tuple:
    return (v.path, v.line, v.col, v.rule, v.message)


class LintEngine:
    """Run a rule set over files and directories: parse every file
    once, link the class summaries into one
    :class:`~repro.analysis.callgraph.Program`, then run each rule on
    each module."""

    def __init__(self, rules: "list[Rule] | None" = None):
        if rules is None:
            from .rules import ALL_RULES

            rules = ALL_RULES
        self.rules = list(rules)

    def collect_files(self, paths: list[str | Path]) -> list[Path]:
        files: list[Path] = []
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                files.extend(
                    f for f in sorted(p.rglob("*.py"))
                    if "__pycache__" not in f.parts
                )
            else:
                files.append(p)
        return files

    def load_modules(self, paths: list[str | Path]) -> list[ModuleInfo]:
        """Parse every file once and link them into one program."""
        from .callgraph import Program, extract_summary

        mods = [load_module(f) for f in self.collect_files(paths)]
        for mod in mods:
            mod.summary = extract_summary(mod)
        program = Program([m.summary for m in mods])
        for mod in mods:
            mod.program = program
        return mods

    def lint_module(self, mod: ModuleInfo) -> list[Violation]:
        """Every rule over one linked module, suppressions applied."""
        out = [
            v for rule in self.rules for v in rule.check(mod)
            if not mod.suppressed(v.rule, v.line)
        ]
        out.sort(key=_sort_key)
        return out

    def lint_paths(self, paths: list[str | Path]) -> list[Violation]:
        out = [v for m in self.load_modules(paths) for v in self.lint_module(m)]
        out.sort(key=_sort_key)
        return out

    def lint_file(self, path: str | Path) -> list[Violation]:
        return self.lint_paths([path])


def lint_paths(
    paths: list[str | Path], rules: "list[Rule] | None" = None
) -> list[Violation]:
    """Convenience wrapper: lint ``paths`` with ``rules`` (default all)."""
    return LintEngine(rules).lint_paths(paths)


def render(violations: list[Violation], as_json: bool = False) -> str:
    """Human or JSON rendering of a violation list."""
    if as_json:
        return json.dumps(
            {"violations": [v.to_dict() for v in violations],
             "count": len(violations)},
            indent=1,
        )
    if not violations:
        return "repro.analysis: clean"
    lines = [v.format() for v in violations]
    lines.append(f"repro.analysis: {len(violations)} violation(s)")
    return "\n".join(lines)
