"""Rule base class and shared AST helpers."""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..engine import ModuleInfo, Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..callgraph import FunctionSummary, Program, Site
    from ..effects import Effect

__all__ = ["Rule", "EffectRule", "dotted_name", "walk_functions"]


class Rule:
    """One lint rule: an id, a fix-hint, and a check.

    The engine links every module it is given into one program before
    any rule runs, so ``mod.summary`` / ``mod.program`` (and the effect
    database on ``mod.program.effects``) are always there.  A rule with
    ``scope = "program"`` is asked once per run through
    :meth:`check_program` instead of once per module.
    """

    id: str = "RULE000"
    title: str = ""
    hint: str = ""
    scope: str = "module"

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        raise NotImplementedError

    def check_program(self, program: "Program") -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, mod: ModuleInfo, node: ast.AST, message: str,
        hint: str | None = None,
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint if hint is not None else self.hint,
        )


class EffectRule(Rule):
    """A rule over one effect-atom kind: every direct site of the kind
    in the module (line and column, from the summary's site list) plus
    every call site the kind propagated to (from the effect database,
    with the chain down to the direct site)."""

    kind = ""  # atom kind this rule reports

    def direct(
        self, mod: ModuleInfo, fn: "FunctionSummary", site: "Site"
    ) -> str | None:
        """Message for a direct site, or None when it is no finding."""
        raise NotImplementedError

    def reached(self, eff: "Effect") -> str:
        """Message for a call site the effect propagated to."""
        raise NotImplementedError

    def applies(
        self, mod: ModuleInfo, fn: "FunctionSummary", eff: "Effect"
    ) -> bool:
        return True

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        db = mod.program.effects
        for fn in mod.summary.functions.values():
            for site in fn.atoms:
                if site.atom[0] != self.kind:
                    continue
                message = self.direct(mod, fn, site)
                if message is not None:
                    yield Violation(
                        self.id, mod.path, site.line, site.col,
                        message, self.hint,
                    )
            for eff in db.with_kind(fn.qname, self.kind):
                if not eff.direct and self.applies(mod, fn, eff):
                    yield Violation(
                        self.id, mod.path, eff.line, 0,
                        self.reached(eff), self.hint, chain=eff.chain,
                    )


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


def walk_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Yield every function, method and nested function of a module."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for sub in defs:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from (
                    n for n in ast.walk(sub)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
