"""Rule registry: every shipped lint rule, one class per id.

Adding a rule: subclass :class:`~repro.analysis.rules.base.Rule` in a
module here, give it an ``id``/``title``/``hint``, and append one
instance to :data:`ALL_RULES`.  A rule about an *effect* (something a
function does and its callers inherit) is written once: teach the
summary scanner in :mod:`repro.analysis.callgraph` the new atom, then
subclass :class:`~repro.analysis.rules.base.EffectRule` with the
atom's ``kind`` - direct sites and every propagated call site are
reported by the same object.  Fixture coverage is enforced by
``tests/test_analysis_lint.py`` - each rule ships one triple: a
triggering fixture, a clean fixture, and a suppression fixture.
"""

from __future__ import annotations

from .base import EffectRule, Rule
from .des import CallbackIoRule
from .determinism import (
    ClockReadRule,
    IdentitySortKeyRule,
    RngDrawRule,
    SetIterationOrderRule,
)
from .persist import SnapshotCodecRule, SnapshotCompletenessRule
from .protocol import (
    COUNTER_OWNERS,
    SERVICE_FACADE_ALLOWED,
    CounterWriteRule,
    EventProtocolRule,
    ServiceFacadeRule,
    WireBypassRule,
)

__all__ = [
    "ALL_RULES",
    "COUNTER_OWNERS",
    "SERVICE_FACADE_ALLOWED",
    "EffectRule",
    "Rule",
    "rule_table",
]

ALL_RULES: list[Rule] = [
    ClockReadRule(),
    RngDrawRule(),
    SetIterationOrderRule(),
    IdentitySortKeyRule(),
    CallbackIoRule(),
    WireBypassRule(),
    CounterWriteRule(),
    ServiceFacadeRule(),
    EventProtocolRule(),
    SnapshotCodecRule(),
    SnapshotCompletenessRule(),
]


def rule_table() -> list[dict]:
    """The shipped rules as rows (docs and ``--rules`` output)."""
    return [
        {"id": r.id, "title": r.title, "hint": r.hint} for r in ALL_RULES
    ]
