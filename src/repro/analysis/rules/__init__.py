"""Rule registry: every shipped lint rule, one class per id.

Adding a rule: subclass :class:`~repro.analysis.rules.base.Rule` in a
module here, give it an ``id``/``title``/``hint`` and a ``check`` over
one module, and append one instance to :data:`ALL_RULES`.  Fixture
coverage is enforced by ``tests/test_analysis_lint.py`` - each rule
ships one triple: a triggering fixture, a clean fixture, and a
suppression fixture.
"""

from __future__ import annotations

from .base import Rule
from .determinism import (
    ClockReadRule,
    IdentitySortKeyRule,
    RngDrawRule,
    SetIterationOrderRule,
)
from .persist import SnapshotCodecRule, SnapshotCompletenessRule
from .protocol import WireBypassRule

__all__ = ["ALL_RULES", "Rule", "rule_table"]

ALL_RULES: list[Rule] = [
    ClockReadRule(),
    RngDrawRule(),
    SetIterationOrderRule(),
    IdentitySortKeyRule(),
    WireBypassRule(),
    SnapshotCodecRule(),
    SnapshotCompletenessRule(),
]


def rule_table() -> list[dict]:
    """The shipped rules as rows (docs and ``--rules`` output)."""
    return [
        {"id": r.id, "title": r.title, "hint": r.hint} for r in ALL_RULES
    ]
