"""Protocol rules: PROTO001-PROTO004 - layer-ownership contracts.

The layered runtime's guarantees are positional: reliable delivery
holds because *every* remote stream passes through the transport's
seq/ack/retransmit path, and the report's counters mean what they say
because exactly one layer writes each of them.  These rules pin both
contracts - and the service layer's facade boundary - to the module
graph.  PROTO001/PROTO002 read the effect database (direct site plus
every call site a raw wire push or a counter write is laundered
through); PROTO003 is an import walk; PROTO004 is the one
program-scope rule: it balances the pushed and dispatched event kinds
of everything linted together.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import ModuleInfo, Violation
from .base import EffectRule, Rule

__all__ = [
    "WireBypassRule",
    "CounterWriteRule",
    "ServiceFacadeRule",
    "EventProtocolRule",
]

#: The only module allowed to put streams on the wire.
_TRANSPORT_MODULE = "repro.runtime.transport"

#: Event kinds that represent a wire transmission: scheduling one
#: outside the transport bypasses seq stamping, ack tracking,
#: retransmit timers, checksums and the fault-injection hook.
_WIRE_KINDS = {"msg_arrive"}


class WireBypassRule(EffectRule):
    """PROTO001: wire events scheduled outside the transport layer."""

    id = "PROTO001"
    title = "transport bypass"
    hint = (
        "route remote streams through Transport.send(): it stamps the "
        "(src, seq) uid, arms the ack/retransmit timers, computes the "
        "checksum and applies the fault-injection hook; a raw "
        "`sim.push(.., 'msg_arrive', ..)` is invisible to all of that"
    )
    kind = "wire"

    def direct(self, mod, fn, site):
        return (
            f"`{site.atom[1]!r}` event scheduled outside "
            f"{_TRANSPORT_MODULE} bypasses the seq/ack path"
        )

    def reached(self, eff):
        return (
            f"call reaches a `{eff.atom[1]!r}` push outside the "
            f"transport ({len(eff.chain) - 1} hop(s) away)"
        )


#: RunReport counter -> the one module allowed to write it.  The
#: defining module (metrics) is always allowed; everything else is a
#: layering violation: a counter written from two layers can no longer
#: be reconciled against that layer's invariants (e.g. retries vs
#: timeouts, crashes vs failover_time).
COUNTER_OWNERS: dict[str, str] = {
    # transport-owned: the wire plane
    "messages": "repro.runtime.transport",
    "message_bytes": "repro.runtime.transport",
    "drops": "repro.runtime.transport",
    "duplicates": "repro.runtime.transport",
    "retries": "repro.runtime.transport",
    "timeouts": "repro.runtime.transport",
    "partition_drops": "repro.runtime.transport",
    "corruptions": "repro.runtime.transport",
    "nacks": "repro.runtime.transport",
    "rtt_samples": "repro.runtime.transport",
    "forwards": "repro.runtime.transport",
    # scheduler-owned: the dispatch/execution plane
    "executions": "repro.runtime.scheduler",
    "local_streams": "repro.runtime.scheduler",
    "stream_items": "repro.runtime.scheduler",
    "vertices_solved": "repro.runtime.scheduler",
    "reexecutions": "repro.runtime.scheduler",
    # recovery-owned: the resilience plane
    "checkpoints": "repro.runtime.recovery",
    "crashes": "repro.runtime.recovery",
    "failover_time": "repro.runtime.recovery",
    "demotions": "repro.runtime.recovery",
    "cascade_crashes": "repro.runtime.recovery",
    # recovery-owned: the elastic-membership plane (DESIGN.md §14)
    "heartbeats": "repro.runtime.recovery",
    "suspicions": "repro.runtime.recovery",
    "false_suspicions": "repro.runtime.recovery",
    "restarts": "repro.runtime.recovery",
    "rejoins": "repro.runtime.recovery",
    "promotions": "repro.runtime.recovery",
    "rebalanced_patches": "repro.runtime.recovery",
    # transport-owned: incarnation fencing happens on the receive path
    "fenced_messages": "repro.runtime.transport",
    # loop-owned: the master loop counts what it dispatches
    "events": "repro.runtime.loop",
    # engine-owned: the composition root's final accounting
    "sanitizer_checks": "repro.runtime.engine_des",
    "termination_hops": "repro.runtime.engine_des",
    "termination_time": "repro.runtime.engine_des",
    "makespan": "repro.runtime.engine_des",
    # checkpoint-owned: the durability plane (DESIGN.md §13)
    "snapshots": "repro.runtime.checkpoint",
    "snapshot_bytes": "repro.runtime.checkpoint",
    # perf plane (DESIGN.md §12): stamped once by the composition root
    # from the simulator's high-water mark
    "peak_heap": "repro.runtime.engine_des",
    # Not listed (caller-provided context, not layer counters):
    # total_cores is a RunReport constructor argument; wall_time is
    # stamped by external harnesses around the whole run.
}

#: Modules exempt from ownership (definition + test scaffolding).
_EXEMPT_MODULES = {"repro.runtime.metrics"}

#: Attribute bases that denote "the run report" (receiver heuristic).
_REPORT_BASES = {"report", "rep", "self.report", "run_report"}


class CounterWriteRule(EffectRule):
    """PROTO002: RunReport counter writes outside the owning layer -
    written in place, or laundered: the caller hands its RunReport to a
    helper that writes a counter the caller's layer does not own."""

    id = "PROTO002"
    title = "counter write outside owning layer"
    hint = (
        "each RunReport counter is written by exactly one layer (see "
        "COUNTER_OWNERS in repro/analysis/rules/protocol.py); expose a "
        "method on the owning layer or add a new counter it owns - "
        "passing the RunReport into a helper that writes the counter "
        "makes the *caller* the writing layer"
    )
    kind = "counter"

    def direct(self, mod, fn, site):
        name = site.atom[1]
        return (
            f"counter `{name}` is owned by {COUNTER_OWNERS[name]}, "
            f"written from {mod.module or mod.path}"
        )

    def applies(self, mod, fn, eff):
        return mod.module != COUNTER_OWNERS.get(eff.atom[1])

    def reached(self, eff):
        return (
            f"call writes counter `{eff.atom[1]}` (owned by "
            f"{COUNTER_OWNERS.get(eff.atom[1], '?')}) through the chain below"
        )


#: The service layer and the runtime facade it is confined to.
_SERVICE_PREFIX = "repro.service"
_RUNTIME_PACKAGE = "repro.runtime"

#: Facade exports the service may import: the runtime entry point, its
#: structured exceptions, and pure data/config types.  Everything else
#: the facade re-exports (Simulator, Transport, Router, Scheduler,
#: FaultInjector, policies, run checker, ...) is an internal layer: a
#: service module that touches one can corrupt invariants the
#: DataDrivenRuntime composition root is responsible for.
SERVICE_FACADE_ALLOWED = frozenset({
    "DataDrivenRuntime",
    "DeadlineExceeded",
    "Machine",
    "Layout",
    "TIANHE2",
    "RecoveryConfig",
    "AdaptiveConfig",
    "FaultPlan",
    "CrashFault",
    "StragglerWindow",
    "LinkPartition",
    "StallError",
    "StallReport",
    "WaitEdge",
    "RunReport",
    "Breakdown",
    "SweepPerformanceModel",
    "SweepModelPrediction",
    "CostModel",
})


def _resolve_import(module: str, node: ast.ImportFrom) -> str | None:
    """Absolute dotted target of a (possibly relative) ImportFrom."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - node.level]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


class ServiceFacadeRule(Rule):
    """PROTO003: repro.service reaching past the DataDrivenRuntime facade.

    The job layer's fault isolation rests on the executor being the
    only runtime client, and only through the facade: admission,
    breakers, retries and degradation all reason about *jobs*, never
    about streams, events or worker pools.  A service module importing
    a runtime submodule (``repro.runtime.transport``) or an internal
    layer name from the facade (``Simulator``, ``Transport``, ...)
    re-opens every layering hole the runtime's own rules closed.
    """

    id = "PROTO003"
    title = "service reaches past the runtime facade"
    hint = (
        "repro.service talks to the runtime only through the facade: "
        "import DataDrivenRuntime (plus exceptions and pure data/config "
        "types) from repro.runtime; never import runtime submodules or "
        "internal layers (Simulator, Transport, Router, Scheduler, "
        "FaultInjector, ...) - see SERVICE_FACADE_ALLOWED in "
        "repro/analysis/rules/protocol.py"
    )

    def check(self, mod: ModuleInfo) -> Iterator[Violation]:
        m = mod.module
        if m != _SERVICE_PREFIX and not m.startswith(_SERVICE_PREFIX + "."):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(_RUNTIME_PACKAGE + "."):
                        yield self.violation(
                            mod, node,
                            f"`import {alias.name}` reaches past the "
                            "DataDrivenRuntime facade",
                        )
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_import(m, node)
                if target is None:
                    continue
                if target.startswith(_RUNTIME_PACKAGE + "."):
                    yield self.violation(
                        mod, node,
                        f"import from {target} bypasses the "
                        f"{_RUNTIME_PACKAGE} facade",
                    )
                elif target == _RUNTIME_PACKAGE:
                    for alias in node.names:
                        if alias.name not in SERVICE_FACADE_ALLOWED:
                            yield self.violation(
                                mod, node,
                                f"`{alias.name}` is a runtime internal; "
                                "the service may only use facade entry "
                                "points and pure data types",
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

    "Nobody handles it" and "unknown to the checker" are closed-world
    claims, so each is made only when the linted set contains the
    other side at all: no dispatch site anywhere (a lone pusher module
    linted by itself) or no HB checker means nothing to check.
    """

    id = "PROTO004"
    title = "event-protocol exhaustiveness"
    hint = (
        "align the push and dispatch sides of the event protocol: add "
        "the missing handler branch, delete the dead one, or teach the "
        "HB checker the new record kind (HbChecker._on_<suffix>)"
    )
    scope = "program"

    def check_program(self, program) -> Iterator[Violation]:
        pushed = program.pushed_kinds()
        handled = program.handled_kinds()
        unhandled = set(pushed) - set(handled) if handled else ()
        for kind in sorted(unhandled):
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
            return
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
