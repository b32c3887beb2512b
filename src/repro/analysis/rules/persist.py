"""Durability rules: PERSIST001 (codec purity), PERSIST002 (coverage).

Snapshot bytes must be a pure function of runtime state: the resumed
run's bitwise-identity guarantee rests on every snapshot of the same
state encoding to the same bytes.  Two things break that silently:

* ``pickle`` (and ``marshal``): byte output depends on memo ids,
  protocol defaults and interpreter version, and unpickling executes
  reduce hooks - the snapshot codec exists precisely to avoid it;
* iterating an unordered set into the snapshot stream: element order
  depends on ``PYTHONHASHSEED``, so the "same" snapshot differs
  between hosts (DET003's sibling, scoped to serialization instead of
  event machinery).

PERSIST001's scope: every module under ``repro.persist``, plus every
``state_dict`` / ``load_state_dict`` implementation anywhere (they
feed the snapshot stream by contract).

PERSIST002 asks the complementary question - is every piece of
run-time state *in* the stream? - and answers it from the linked class
summaries (:mod:`repro.analysis.callgraph`): a class's ``self.*``
writes, through same-receiver calls, against what its ``state_dict`` /
``load_state_dict`` pair covers.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import ModuleInfo, Violation
from .base import Rule, dotted_name
from .determinism import (
    _collect_set_attrs,
    _collect_set_names,
    _is_sorted_wrapped,
    _set_expr,
)

__all__ = ["SnapshotCodecRule", "SnapshotCompletenessRule"]

#: Serializers whose bytes are not a pure function of the value.
_BANNED_SERIALIZERS = {
    "pickle.dumps", "pickle.dump", "pickle.loads", "pickle.load",
    "cPickle.dumps", "cPickle.dump", "cPickle.loads", "cPickle.load",
    "marshal.dumps", "marshal.dump", "marshal.loads", "marshal.load",
}

_STATE_FNS = ("state_dict", "load_state_dict")


class SnapshotCodecRule(Rule):
    """PERSIST001: snapshot bytes must use the versioned codec."""

    id = "PERSIST001"
    title = "non-deterministic bytes in the snapshot stream"
    hint = (
        "serialize through repro.persist.codec (encode/frame: versioned, "
        "CRC-framed, deterministic) - never pickle/marshal - and iterate "
        "`sorted(the_set)` when a set's members enter a state dict"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        in_persist = mod.module.startswith("repro.persist")
        fns = [
            fn for fn in mod.functions if in_persist or fn.name in _STATE_FNS
        ]
        if not fns and not in_persist:
            return
        set_attrs = _collect_set_attrs(mod)
        seen: set[tuple] = set()  # nested functions are walked twice
        if in_persist:
            # Whole-module sweep for banned serializers (module level
            # included); iterations are checked per function below so
            # provably-set local names are known.
            yield from self._dedup(
                self._check_scope(mod, mod.nodes, set(), set_attrs,
                                  iterations=False),
                seen,
            )
        for fn in fns:
            nodes = list(ast.walk(fn))
            yield from self._dedup(
                self._check_scope(
                    mod, nodes, _collect_set_names(fn, nodes), set_attrs,
                    calls=not in_persist,
                ),
                seen,
            )

    @staticmethod
    def _dedup(
        violations: Iterator[Violation], seen: set[tuple]
    ) -> Iterator[Violation]:
        for v in violations:
            key = (v.line, v.col, v.message)
            if key not in seen:
                seen.add(key)
                yield v

    def _check_scope(
        self,
        mod: ModuleInfo,
        nodes: list[ast.AST],
        set_names: set[str],
        set_attrs: set[str],
        calls: bool = True,
        iterations: bool = True,
    ) -> Iterator[Violation]:
        for node in nodes:
            if not iterations and not isinstance(node, ast.Call):
                continue
            if calls and isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _BANNED_SERIALIZERS:
                    yield self.violation(
                        mod, node,
                        f"`{name}()` in the snapshot path - its bytes "
                        "are not a pure function of the value",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._unordered(
                    mod, node, node.iter, set_names, set_attrs
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                for gen in node.generators:
                    yield from self._unordered(
                        mod, node, gen.iter, set_names, set_attrs
                    )

    def _unordered(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        it: ast.expr,
        set_names: set[str],
        set_attrs: set[str],
    ) -> Iterator[Violation]:
        if _is_sorted_wrapped(it):
            return
        why = _set_expr(it, set_names, set_attrs)
        if why is not None:
            yield self.violation(
                mod, node,
                f"iteration over {why} serializes in hash order - "
                "snapshot bytes now depend on PYTHONHASHSEED",
            )


class SnapshotCompletenessRule(Rule):
    """PERSIST002: mutable state outside the state_dict round trip.

    For every class that has ``state_dict`` (its own or inherited),
    each ``self.*`` attribute assigned in a method body outside
    ``__init__`` - directly, through ``self.m()`` calls resolved on the
    class's MRO, or in a module-level helper handed ``self`` - must be
    read by ``state_dict`` or written by ``load_state_dict``, or carry
    a ``# repro: transient`` pragma on an assignment line.  Anything
    else is run-time state a kill-resume silently drops.  An attribute
    a base class already leaves uncovered is reported at the base.
    """

    id = "PERSIST002"
    title = "mutable state missing from state_dict"
    hint = (
        "persist the attribute in state_dict()/load_state_dict(), or "
        "mark an assignment with `# repro: transient` if it is rebuilt "
        "at composition time (caches, bound callbacks, masks derived "
        "from persisted state)"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        program = mod.program
        for cls in mod.summary.classes.values():
            missing = program.uncovered(cls.qname)
            if not missing:
                continue
            inherited: set[str] = set()
            for base in program.mro(cls.qname)[1:]:
                inherited.update(program.uncovered(base.qname))
            for attr in sorted(missing.keys() - inherited):
                chain = missing[attr]
                origin, line = chain[-1]
                here = origin.path == mod.path
                yield Violation(
                    rule=self.id,
                    path=mod.path,
                    line=line if here else cls.line,
                    col=0,
                    message=(
                        f"`{cls.name}.{attr}` is assigned outside __init__ "
                        "but not covered by state_dict/load_state_dict"
                    ),
                    hint=self.hint,
                    chain=tuple(fn.entry(ln) for fn, ln in chain)
                    if len(chain) > 1 or not here else (),
                )
