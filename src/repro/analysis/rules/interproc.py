"""Interprocedural rules: effect-inference re-hosts + PERSIST002/PROTO004.

These rules only run under ``lint --interprocedural``: they consult the
whole-program call graph (:mod:`repro.analysis.callgraph`) and the
fixed-point effect database (:mod:`repro.analysis.effects`) attached to
each :class:`~repro.analysis.engine.ModuleInfo` by the engine.

The DET/DES/PROTO re-hosts flag *call sites* whose resolved target
transitively carries an effect the corresponding single-file rule bans
at the direct site - the propagation chain rides in the finding.  A
``# repro: allow[RULE]`` at the direct site kills the atom before it
propagates, so blessing one source silences the whole caller cone;
suppressing at a call site silences only that site.

PERSIST002 (snapshot completeness) and PROTO004 (event-protocol
exhaustiveness) have no single-file analogue: both are only decidable
with the program-wide view.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..effects import Effect, EffectDB, effect_db, origin_site
from ..engine import ModuleInfo, Violation
from .base import Rule, walk_functions
from .determinism import SetIterationOrderRule
from .protocol import COUNTER_OWNERS

__all__ = [
    "TransitiveEffectRule",
    "TransitiveWallClockRule",
    "TransitiveRngRule",
    "TransitiveCallbackIoRule",
    "TransitiveWireRule",
    "TransitiveCounterRule",
    "TransitiveSetIterationRule",
    "SnapshotCompletenessRule",
    "EventProtocolRule",
]


def _db(mod: ModuleInfo) -> EffectDB | None:
    if mod.program is None:
        return None
    return effect_db(mod.program)


def _chain_violation(
    rule: Rule, mod: ModuleInfo, eff: Effect, message: str
) -> Violation:
    return Violation(
        rule=rule.id,
        path=mod.path,
        line=eff.line,
        col=0,
        message=message,
        hint=rule.hint,
        chain=eff.chain,
    )


class TransitiveEffectRule(Rule):
    """Base for the DET/DES/PROTO re-hosts: flag functions carrying a
    propagated (chain length > 1) atom of one kind.

    Direct sites (chain length 1) stay the single-file rules' job -
    the two passes partition the findings instead of duplicating them.
    """

    kind = ""  # atom kind this rule propagates

    def describe(self, eff: Effect) -> str:
        raise NotImplementedError

    def applies(self, mod: ModuleInfo, qname: str, eff: Effect) -> bool:
        return True

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        db = _db(mod)
        if db is None or mod.summary is None:
            return
        for fs in mod.summary.functions.values():
            for eff in db.with_kind(fs.qname, self.kind):
                if eff.direct:
                    continue
                if not self.applies(mod, fs.qname, eff):
                    continue
                yield _chain_violation(self, mod, eff, self.describe(eff))


class TransitiveWallClockRule(TransitiveEffectRule):
    """DET001 (interprocedural): wall-clock reads reached via helpers."""

    id = "DET001"
    title = "wall-clock read (transitive)"
    hint = (
        "this call reaches a host-clock read through the chain below; "
        "pass `now` down from the event loop instead - or bless the "
        "direct site with `# repro: allow[DET001]` if the read is "
        "deliberate, which clears every caller at once"
    )
    kind = "wall"

    def describe(self, eff: Effect) -> str:
        return (
            f"call reaches wall-clock read `{eff.atom[1]}()` "
            f"({len(eff.chain) - 1} hop(s) away)"
        )


class TransitiveRngRule(TransitiveEffectRule):
    """DET002 (interprocedural): unseeded RNG reached via helpers."""

    id = "DET002"
    title = "unseeded RNG (transitive)"
    hint = (
        "this call reaches an unseeded RNG draw through the chain "
        "below; thread an explicitly seeded generator down as a "
        "parameter instead"
    )
    kind = "rng"

    def describe(self, eff: Effect) -> str:
        return (
            f"call reaches unseeded RNG `{eff.atom[1]}()` "
            f"({len(eff.chain) - 1} hop(s) away)"
        )


class TransitiveCallbackIoRule(TransitiveEffectRule):
    """DES001 (interprocedural): real I/O reached from a callback."""

    id = "DES001"
    title = "real I/O reached from a simulated callback"
    hint = (
        "a virtual-time callback reaches host I/O through the chain "
        "below; book the cost on a Resource timeline and do the I/O in "
        "the driver - or bless the direct site with "
        "`# repro: allow[DES001]` if the I/O is the layer's contract "
        "(e.g. the durability WAL)"
    )
    kind = "io"

    def applies(self, mod: ModuleInfo, qname: str, eff: Effect) -> bool:
        fn = mod.program.functions.get(qname) if mod.program else None
        return fn is not None and fn.is_callback

    def describe(self, eff: Effect) -> str:
        return (
            f"simulated callback reaches `{eff.atom[1]}` "
            f"({len(eff.chain) - 1} hop(s) away)"
        )


class TransitiveWireRule(TransitiveEffectRule):
    """PROTO001 (interprocedural): transport bypass via helpers."""

    id = "PROTO001"
    title = "transport bypass (transitive)"
    hint = (
        "this call reaches a raw wire-kind push outside the transport "
        "through the chain below; route the stream through "
        "Transport.send() instead"
    )
    kind = "wire"

    def describe(self, eff: Effect) -> str:
        return (
            f"call reaches a `{eff.atom[1]!r}` push outside the "
            f"transport ({len(eff.chain) - 1} hop(s) away)"
        )


class TransitiveCounterRule(TransitiveEffectRule):
    """PROTO002 (interprocedural): counter writes laundered through
    helpers - the caller hands its RunReport to a function that writes
    a counter the caller's layer does not own."""

    id = "PROTO002"
    title = "counter write laundered through a helper"
    hint = (
        "passing the RunReport into a helper that writes this counter "
        "makes the *caller* the writing layer; expose a method on the "
        "owning layer or move the call there (see COUNTER_OWNERS)"
    )
    kind = "counter"

    def applies(self, mod: ModuleInfo, qname: str, eff: Effect) -> bool:
        return mod.module != COUNTER_OWNERS.get(eff.atom[1])

    def describe(self, eff: Effect) -> str:
        return (
            f"call writes counter `{eff.atom[1]}` (owned by "
            f"{COUNTER_OWNERS.get(eff.atom[1], '?')}) through the chain below"
        )


class TransitiveSetIterationRule(SetIterationOrderRule):
    """DET003 (interprocedural): set-order iteration whose body reaches
    an event sink more than one call hop away.

    The single-file DET003 sees direct sinks and one same-module hop;
    this extension resolves the loop body's calls through the program
    call graph and asks the effect database whether any target
    transitively pushes into event-ordered machinery.  Loops the
    single-file rule already flags are skipped - the passes partition.
    """

    # id/title/hint inherited: same rule family, deeper reach.

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        if mod.program is None:
            return
        db = effect_db(mod.program)
        from .determinism import (
            _collect_set_attrs,
            _collect_set_names,
            _is_sorted_wrapped,
            _set_expr,
        )

        set_attrs = _collect_set_attrs(mod.tree)
        for fn, _cls in walk_functions(mod.tree):
            set_names = _collect_set_names(fn)
            for node in ast.walk(fn):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                if _is_sorted_wrapped(node.iter):
                    continue
                why = _set_expr(node.iter, set_names, set_attrs)
                if why is None:
                    continue
                if self._find_sink(node.body, mod) is not None:
                    continue  # the single-file rule already flags this
                hit = self._transitive_sink(node.body, mod, db)
                if hit is None:
                    continue
                sink_eff, target = hit
                yield Violation(
                    rule=self.id,
                    path=mod.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"iteration over {why} reaches event sink "
                        f"`{sink_eff.atom[1]}` through `{target}` - "
                        "event order now depends on PYTHONHASHSEED"
                    ),
                    hint=self.hint,
                    chain=sink_eff.chain,
                )

    def _transitive_sink(
        self, body: list[ast.stmt], mod: ModuleInfo, db: EffectDB
    ) -> tuple[Effect, str] | None:
        assert mod.program is not None
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                targets = mod.program.calls_at.get((mod.path, node.lineno), ())
                for t in targets:
                    for eff in db.with_kind(t, "sink"):
                        return eff, t
        return None


class SnapshotCompletenessRule(Rule):
    """PERSIST002: mutable state outside the state_dict round trip.

    For every class shipping ``state_dict``, each ``self.*`` attribute
    assigned in any (hierarchy- and call-graph-resolved) method body
    outside ``__init__`` must be read by ``state_dict`` or written by
    ``load_state_dict`` - or carry a ``# repro: transient`` pragma on
    an assignment line.  Anything else is run-time state a PR 8
    kill-resume silently drops.
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
        db = _db(mod)
        if db is None or mod.summary is None:
            return
        for cls in mod.summary.classes.values():
            if not cls.has_state_dict:
                continue
            covered = db.class_covered(cls.qname)
            transient = db.class_transient(cls.qname)
            writes = db.class_swrites(cls.qname)
            for attr in sorted(writes):
                if attr in covered or attr in transient:
                    continue
                if attr.startswith("__"):
                    continue  # name-mangled internals: not restorable state
                eff = writes[attr]
                path, line = origin_site(eff)
                anchored_here = path == mod.path
                yield Violation(
                    rule=self.id,
                    path=mod.path,
                    line=line if anchored_here else cls.line,
                    col=0,
                    message=(
                        f"`{cls.name}.{attr}` is assigned outside __init__ "
                        "but not covered by state_dict/load_state_dict"
                    ),
                    hint=self.hint,
                    chain=eff.chain if not eff.direct or not anchored_here
                    else (),
                )


class EventProtocolRule(Rule):
    """PROTO004: event-kind and hb-record exhaustiveness.

    Program-wide: every event kind pushed into a simulator/service
    heap must have a dispatch branch somewhere (a pop-bound ``kind ==
    "x"`` comparison, a ``kind_id`` interning site or a ``KindRow``
    registration), and vice versa;
    every ``hb_*`` record kind emitted via ``note()`` must be one the
    HB checker (``*HbChecker._on_<suffix>``) understands.  A pushed
    kind nobody handles sits in the heap forever (or dies in a default
    branch); a handled kind nobody pushes is dead protocol; an unknown
    hb kind silently skips race checking.
    """

    id = "PROTO004"
    title = "event-protocol exhaustiveness"
    hint = (
        "align the push and dispatch sides of the event protocol: add "
        "the missing handler branch, delete the dead one, or teach the "
        "HB checker the new record kind (HbChecker._on_<suffix>)"
    )

    scope = "program"

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        return iter(())  # program-scope: see check_program

    def check_program(self, program) -> Iterator[Violation]:
        pushed = program.pushed_kinds()
        handled = program.handled_kinds()
        for kind in sorted(set(pushed) - set(handled)):
            path, line = min(pushed[kind])
            yield Violation(
                rule=self.id, path=path, line=line, col=0,
                message=(
                    f"event kind `{kind!r}` is pushed but no dispatch "
                    "branch handles it"
                ),
                hint=self.hint,
            )
        for kind in sorted(set(handled) - set(pushed)):
            path, line = min(handled[kind])
            yield Violation(
                rule=self.id, path=path, line=line, col=0,
                message=(
                    f"dispatch branch handles event kind `{kind!r}` "
                    "but nothing pushes it"
                ),
                hint=self.hint,
            )
        known_hb = program.hb_known_kinds()
        if not known_hb:
            return  # no HB checker in the linted set: nothing to check
        for summary in program.modules.values():
            for kind, line in sorted(set(summary.hb_emits)):
                if kind not in known_hb:
                    yield Violation(
                        rule=self.id, path=summary.path, line=line, col=0,
                        message=(
                            f"hb record kind `{kind!r}` is emitted but "
                            "unknown to the HB checker"
                        ),
                        hint=self.hint,
                    )
