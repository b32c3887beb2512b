"""Static analysis for the reproduction: determinism lints + HB races.

Every guarantee the runtime makes - bitwise-exact recovery under chaos
campaigns, golden fingerprints across refactors, the data-driven
schedule being a pure function of ``(mesh, partition, seed)`` - rests
on two properties the dynamic test tiers can only sample:

1. the *source* contains no hidden nondeterminism (wall-clock reads,
   unseeded RNG, set-iteration order leaking into event ordering), and
2. the *protocols* never commit state that is not happens-before
   ordered by a delivery edge.

This package enforces both statically:

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` - a
  custom lint engine with repo-specific determinism (DET), protocol
  (PROTO) and durability (PERSIST) rules, one class per id,
  ``# repro: allow[RULE]`` suppressions and machine-readable output.
  Each rule reports the sites it sees in one module; PERSIST002 alone
  links the modules, through :mod:`repro.analysis.callgraph` (class
  hierarchy plus same-receiver ``self.m()`` calls), to check that a
  class's run-time state is in its ``state_dict``;
* :mod:`repro.analysis.hb` - offline replay of recorded ``hb_*``
  traces through the runtime's one run checker
  (:class:`repro.runtime.checker.HbChecker`, a vector-clock
  happens-before checker whose online mode is the ``sanitize=True``
  invariant sanitizer), collecting every commit/migration/delivery
  race instead of raising at the first.

Run both from the CLI::

    python -m repro.analysis lint src/
    python -m repro.analysis check-trace trace.json
"""

from __future__ import annotations

from .engine import LintEngine, ModuleInfo, Violation, lint_paths
from .hb import (
    HbChecker,
    HbRace,
    check_report,
    check_trace,
    dump_hb_json,
    load_hb_json,
)
from .rules import ALL_RULES, rule_table

__all__ = [
    "ALL_RULES",
    "HbChecker",
    "HbRace",
    "LintEngine",
    "ModuleInfo",
    "Violation",
    "check_report",
    "check_trace",
    "dump_hb_json",
    "lint_paths",
    "load_hb_json",
    "rule_table",
]
