"""Rule base class (and `dotted_name`, re-exported for the rules)."""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import ModuleInfo, Violation, dotted_name

__all__ = ["Rule", "dotted_name"]


class Rule:
    """One lint rule: an id, a fix-hint, and a per-module check.

    The engine links every module it is given into one
    :class:`~repro.analysis.callgraph.Program` before any rule runs, so
    ``mod.summary`` / ``mod.program`` are always there (PERSIST002 reads
    them; every other rule is a walk of ``mod.tree``).
    """

    id: str = "RULE000"
    title: str = ""
    hint: str = ""

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, mod: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint,
        )
